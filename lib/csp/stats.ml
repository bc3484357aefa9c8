type t = {
  mutable nodes : int;
  mutable checks : int;
  mutable backtracks : int;
  mutable backjumps : int;
  mutable prunings : int;
  mutable learned : int;
  mutable forgotten : int;
  mutable restarts : int;
  mutable bounded : int;
  mutable incumbents : int;
  mutable interrupted : int;
  mutable max_depth : int;
  mutable elapsed_s : float;
  mutable cpu_s : float;
  mutable nodes_by_depth : int array;
  mutable nodes_by_var : int array;
}

let create () =
  {
    nodes = 0;
    checks = 0;
    backtracks = 0;
    backjumps = 0;
    prunings = 0;
    learned = 0;
    forgotten = 0;
    restarts = 0;
    bounded = 0;
    incumbents = 0;
    interrupted = 0;
    max_depth = 0;
    elapsed_s = 0.;
    cpu_s = 0.;
    nodes_by_depth = [||];
    nodes_by_var = [||];
  }

let reset t =
  t.nodes <- 0;
  t.checks <- 0;
  t.backtracks <- 0;
  t.backjumps <- 0;
  t.prunings <- 0;
  t.learned <- 0;
  t.forgotten <- 0;
  t.restarts <- 0;
  t.bounded <- 0;
  t.incumbents <- 0;
  t.interrupted <- 0;
  t.max_depth <- 0;
  t.elapsed_s <- 0.;
  t.cpu_s <- 0.;
  t.nodes_by_depth <- [||];
  t.nodes_by_var <- [||]

let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let ensure_hists t n =
  t.nodes_by_depth <- grow t.nodes_by_depth n;
  t.nodes_by_var <- grow t.nodes_by_var n

let merge ?vars dst src =
  dst.nodes <- dst.nodes + src.nodes;
  dst.checks <- dst.checks + src.checks;
  dst.backtracks <- dst.backtracks + src.backtracks;
  dst.backjumps <- dst.backjumps + src.backjumps;
  dst.prunings <- dst.prunings + src.prunings;
  dst.learned <- dst.learned + src.learned;
  dst.forgotten <- dst.forgotten + src.forgotten;
  dst.restarts <- dst.restarts + src.restarts;
  dst.bounded <- dst.bounded + src.bounded;
  dst.incumbents <- dst.incumbents + src.incumbents;
  dst.interrupted <- dst.interrupted + src.interrupted;
  dst.max_depth <- max dst.max_depth src.max_depth;
  dst.elapsed_s <- dst.elapsed_s +. src.elapsed_s;
  dst.cpu_s <- dst.cpu_s +. src.cpu_s;
  dst.nodes_by_depth <-
    grow dst.nodes_by_depth (Array.length src.nodes_by_depth);
  Array.iteri
    (fun d c -> dst.nodes_by_depth.(d) <- dst.nodes_by_depth.(d) + c)
    src.nodes_by_depth;
  Array.iteri
    (fun i c ->
      let j = match vars with Some vars -> vars.(i) | None -> i in
      dst.nodes_by_var <- grow dst.nodes_by_var (j + 1);
      dst.nodes_by_var.(j) <- dst.nodes_by_var.(j) + c)
    src.nodes_by_var

let add a b =
  let s =
    {
      a with
      nodes_by_depth = Array.copy a.nodes_by_depth;
      nodes_by_var = Array.copy a.nodes_by_var;
    }
  in
  merge s b;
  s

let to_json t =
  let open Mlo_obs.Json in
  let hist a = Arr (Array.to_list (Array.map (fun v -> Num (float_of_int v)) a)) in
  Obj
    [
      ("nodes", Num (float_of_int t.nodes));
      ("checks", Num (float_of_int t.checks));
      ("backtracks", Num (float_of_int t.backtracks));
      ("backjumps", Num (float_of_int t.backjumps));
      ("prunings", Num (float_of_int t.prunings));
      ("learned", Num (float_of_int t.learned));
      ("forgotten", Num (float_of_int t.forgotten));
      ("restarts", Num (float_of_int t.restarts));
      ("bounded", Num (float_of_int t.bounded));
      ("incumbents", Num (float_of_int t.incumbents));
      ("interrupted", Num (float_of_int t.interrupted));
      ("max_depth", Num (float_of_int t.max_depth));
      ("elapsed_s", Num t.elapsed_s);
      ("cpu_s", Num t.cpu_s);
      ("nodes_by_depth", hist t.nodes_by_depth);
      ("nodes_by_var", hist t.nodes_by_var);
    ]

let pp ppf t =
  Format.fprintf ppf
    "nodes=%d checks=%d backtracks=%d backjumps=%d prunings=%d%s%s%s \
     depth=%d time=%.4fs cpu=%.4fs"
    t.nodes t.checks t.backtracks t.backjumps t.prunings
    (if t.learned + t.forgotten + t.restarts = 0 then ""
     else
       Printf.sprintf " learned=%d forgotten=%d restarts=%d" t.learned
         t.forgotten t.restarts)
    (if t.bounded + t.incumbents = 0 then ""
     else Printf.sprintf " bounded=%d incumbents=%d" t.bounded t.incumbents)
    (if t.interrupted = 0 then "" else Printf.sprintf " interrupted=%d" t.interrupted)
    t.max_depth t.elapsed_s t.cpu_s
