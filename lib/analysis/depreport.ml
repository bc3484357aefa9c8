module Dependence = Mlo_ir.Dependence
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Program = Mlo_ir.Program
module Presburger = Mlo_ir.Presburger
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

type pair_report = {
  src : int;
  dst : int;
  src_ref : string;
  dst_ref : string;
  src_write : bool;
  dst_write : bool;
  deps : Dependence.dep list;
}

type nest_report = {
  nest : string;
  depth : int;
  pairs : pair_report list;
  legal_orders : int;
  total_orders : int;
}

type t = {
  program : string;
  nests : nest_report list;
  checks : int;
  eliminations : int;
  splits : int;
  max_split_depth : int;
}

let access_str nest a =
  Format.asprintf "%a" (Access.pp (Loop_nest.var_names nest)) a

let nest_report nest =
  let accs = Loop_nest.accesses nest in
  let pairs =
    List.map
      (fun (i, j, deps) ->
        let a1 = accs.(i) and a2 = accs.(j) in
        {
          src = i;
          dst = j;
          src_ref = access_str nest a1;
          dst_ref = access_str nest a2;
          src_write = Access.is_write a1;
          dst_write = Access.is_write a2;
          deps;
        })
      (Dependence.pair_deps nest)
  in
  let legal = List.length (Dependence.legal_orders nest) in
  let total = List.length (Loop_nest.orders nest) in
  {
    nest = Loop_nest.name nest;
    depth = Loop_nest.depth nest;
    pairs;
    legal_orders = legal;
    total_orders = total;
  }

let run prog =
  Trace.with_span ~cat:"analysis" "deps:analyze" @@ fun () ->
  let before = Presburger.stats () in
  let nests =
    Array.to_list (Array.map nest_report (Program.nests prog))
  in
  let after = Presburger.stats () in
  let checks = after.Presburger.checks - before.Presburger.checks
  and eliminations =
    after.Presburger.eliminations - before.Presburger.eliminations
  and splits = after.Presburger.splits - before.Presburger.splits
  and max_split_depth = after.Presburger.max_split_depth in
  Trace.counter ~cat:"analysis" "presburger"
    [
      ("checks", float_of_int checks);
      ("eliminations", float_of_int eliminations);
      ("splits", float_of_int splits);
    ];
  {
    program = Program.name prog;
    nests;
    checks;
    eliminations;
    splits;
    max_split_depth;
  }

let pinned nr = nr.legal_orders = 1 && nr.total_orders > 1

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s@," t.program;
  List.iter
    (fun nr ->
      Format.fprintf ppf "@,nest %s (depth %d): %d/%d loop orders legal%s@,"
        nr.nest nr.depth nr.legal_orders nr.total_orders
        (if pinned nr then " (pinned)" else "");
      if nr.pairs = [] then Format.fprintf ppf "  no conflicting pairs@,"
      else
        List.iter
          (fun pr ->
            let kind w = if w then "write" else "read" in
            if pr.deps = [] then
              Format.fprintf ppf "  %s (%s) / %s (%s): independent@,"
                pr.src_ref (kind pr.src_write) pr.dst_ref (kind pr.dst_write)
            else
              Format.fprintf ppf "  %s (%s) -> %s (%s): %a@," pr.src_ref
                (kind pr.src_write) pr.dst_ref (kind pr.dst_write)
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                   Dependence.pp_dep)
                pr.deps)
          nr.pairs)
    t.nests;
  Format.fprintf ppf
    "@,presburger: %d checks, %d eliminations, %d splits (depth <= %d)@]"
    t.checks t.eliminations t.splits t.max_split_depth

let dep_json = function
  | Dependence.Distance d ->
      Json.Obj
        [
          ("kind", Json.Str "distance");
          ( "vector",
            Json.Arr
              (Array.to_list
                 (Array.map (fun c -> Json.Num (float_of_int c)) d)) );
        ]
  | Dependence.Direction dirs ->
      Json.Obj
        [
          ("kind", Json.Str "direction");
          ( "dirs",
            Json.Arr
              (Array.to_list
                 (Array.map
                    (fun d ->
                      Json.Str (String.make 1 (Dependence.direction_char d)))
                    dirs)) );
        ]

let pair_json pr =
  Json.Obj
    [
      ("src", Json.Num (float_of_int pr.src));
      ("dst", Json.Num (float_of_int pr.dst));
      ("src_ref", Json.Str pr.src_ref);
      ("dst_ref", Json.Str pr.dst_ref);
      ("src_write", Json.Bool pr.src_write);
      ("dst_write", Json.Bool pr.dst_write);
      ("independent", Json.Bool (pr.deps = []));
      ("deps", Json.Arr (List.map dep_json pr.deps));
    ]

let nest_json nr =
  Json.Obj
    [
      ("nest", Json.Str nr.nest);
      ("depth", Json.Num (float_of_int nr.depth));
      ("pairs", Json.Arr (List.map pair_json nr.pairs));
      ("legal_orders", Json.Num (float_of_int nr.legal_orders));
      ("total_orders", Json.Num (float_of_int nr.total_orders));
      ("pinned", Json.Bool (pinned nr));
    ]

let to_json t =
  Json.Obj
    [
      ("program", Json.Str t.program);
      ("nests", Json.Arr (List.map nest_json t.nests));
      ( "presburger",
        Json.Obj
          [
            ("checks", Json.Num (float_of_int t.checks));
            ("eliminations", Json.Num (float_of_int t.eliminations));
            ("splits", Json.Num (float_of_int t.splits));
            ("max_split_depth", Json.Num (float_of_int t.max_split_depth));
          ] );
    ]
