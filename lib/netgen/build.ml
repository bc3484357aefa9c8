module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Cost = Mlo_ir.Cost
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Weighted = Mlo_csp.Weighted

type t = {
  network : Layout.t Network.t;
  program : Program.t;
  constrained_arrays : string array;
}

let add_unique layout layouts =
  if List.exists (Layout.equal layout) layouts then layouts
  else layouts @ [ layout ]

(* For every nest: its touched-array list and, per legal variant (the
   program's staged orders), the per-array layout demands. *)
let nest_demands prog =
  let orders = Program.legal_orders prog in
  Array.to_list
    (Array.mapi
       (fun i nest ->
         let variants = Variants.of_orders nest orders.(i) in
         let touched = Loop_nest.arrays_touched nest in
         (nest, touched, List.map Variants.layouts_for variants))
       (Program.nests prog))

let collect_domains prog demands candidates =
  let arrays = Program.arrays prog in
  let table = Hashtbl.create 16 in
  Array.iter
    (fun info ->
      let rank = Array_info.rank info in
      let name = Array_info.name info in
      let default = if rank = 1 then Layout.trivial else Layout.row_major rank in
      let extra =
        List.filter (fun l -> Layout.rank l = rank) (candidates name)
      in
      Hashtbl.replace table name
        (List.fold_left (fun acc l -> add_unique l acc) [ default ] extra))
    arrays;
  List.iter
    (fun (_nest, _touched, per_variant) ->
      List.iter
        (fun layouts ->
          List.iter
            (fun (name, layout) ->
              let cur = Hashtbl.find table name in
              Hashtbl.replace table name (add_unique layout cur))
            layouts)
        per_variant)
    demands;
  table

let build_internal ?(candidates = fun _ -> []) ~make_sink prog =
  let demands = nest_demands prog in
  let domains_tbl = collect_domains prog demands candidates in
  let arrays = Program.arrays prog in
  let names = Array.map Array_info.name arrays in
  let domains =
    Array.map (fun n -> Array.of_list (Hashtbl.find domains_tbl n)) names
  in
  let network = Network.create ~names ~domains in
  let var_of name =
    let rec go i =
      if i >= Array.length names then raise Not_found
      else if String.equal names.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  let layout_index name layout =
    let dom = Hashtbl.find domains_tbl name in
    let rec go i = function
      | [] -> raise Not_found
      | l :: rest -> if Layout.equal l layout then i else go (i + 1) rest
    in
    go 0 dom
  in
  (* The layouts an array could meaningfully take: everything some
     restructuring demands for it, plus its default (domain index 0).
     Wildcards range over this set, not the full (possibly padded)
     domain: a restructuring that leaves an array free is indifferent
     among the layouts the rest of the program might ask of it. *)
  let meaningful = Hashtbl.create 16 in
  List.iter
    (fun (_nest, _touched, per_variant) ->
      List.iter
        (fun layouts ->
          List.iter
            (fun (name, layout) ->
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt meaningful name)
              in
              let idx = layout_index name layout in
              if not (List.mem idx cur) then
                Hashtbl.replace meaningful name (idx :: cur))
            layouts)
        per_variant)
    demands;
  let meaningful_indices name =
    let demanded = Option.value ~default:[] (Hashtbl.find_opt meaningful name) in
    if List.mem 0 demanded then demanded else 0 :: demanded
  in
  (* Streaming pair insertion: one nest's proposed pairs (concrete and
     wildcarded) at a time, keyed for idempotence, added to the network
     and handed to [sink] (the weighting hook) before the next nest's
     set is built — peak transient memory is the largest single nest's
     pair set, not the whole program's. *)
  let sink = make_sink network in
  List.iter
    (fun (nest, touched, per_variant) ->
      let pairs = Hashtbl.create 64 in
      let record ia va ib vb =
        let k = if ia < ib then (ia, va, ib, vb) else (ib, vb, ia, va) in
        Hashtbl.replace pairs k ()
      in
      List.iter
        (fun layouts ->
          let demand name = List.assoc_opt name layouts in
          let rec each_pair = function
            | [] -> ()
            | na :: rest ->
              List.iter
                (fun nb ->
                  let ia = var_of na and ib = var_of nb in
                  match (demand na, demand nb) with
                  | None, None ->
                    (* this restructuring is satisfied by any meaningful
                       layout combination of the pair *)
                    List.iter
                      (fun va ->
                        List.iter
                          (fun vb -> record ia va ib vb)
                          (meaningful_indices nb))
                      (meaningful_indices na)
                  | Some la, Some lb ->
                    record ia (layout_index na la) ib (layout_index nb lb)
                  | Some la, None ->
                    let va = layout_index na la in
                    List.iter (fun vb -> record ia va ib vb)
                      (meaningful_indices nb)
                  | None, Some lb ->
                    let vb = layout_index nb lb in
                    List.iter (fun va -> record ia va ib vb)
                      (meaningful_indices na))
                rest;
              each_pair rest
          in
          each_pair touched)
        per_variant;
      Hashtbl.iter
        (fun (i, vi, j, vj) () -> Network.add_allowed network i j [ (vi, vj) ])
        pairs;
      sink nest pairs)
    demands;
  { network; program = prog; constrained_arrays = names }

let no_sink _network _nest _pairs = ()

let build ?candidates prog =
  Mlo_obs.Trace.with_span ~cat:"netgen" "build"
    ~args:[ ("program", Mlo_obs.Trace.Str (Program.name prog)) ]
  @@ fun () ->
  build_internal ?candidates ~make_sink:(fun net -> no_sink net) prog

let weighted ?candidates prog =
  let w = ref None in
  let make_sink network =
    let ww = Weighted.create network in
    w := Some ww;
    fun nest pairs ->
      let cost = float_of_int (Cost.nest_cost nest) in
      Hashtbl.iter
        (fun (i, vi, j, vj) () -> Weighted.add_weight ww i vi j vj cost)
        pairs
  in
  let t = build_internal ?candidates ~make_sink prog in
  (t, Option.get !w)

let var_of_array t name =
  let rec go i =
    if i >= Array.length t.constrained_arrays then raise Not_found
    else if String.equal t.constrained_arrays.(i) name then i
    else go (i + 1)
  in
  go 0

let assignment_layouts t assignment =
  Array.to_list
    (Array.mapi
       (fun i name -> (name, Network.value t.network i assignment.(i)))
       t.constrained_arrays)

let lookup t assignment name =
  match var_of_array t name with
  | i -> Some (Network.value t.network i assignment.(i))
  | exception Not_found -> None

let components t =
  Array.map
    (Array.map (fun v -> t.constrained_arrays.(v)))
    (Network.components t.network)
