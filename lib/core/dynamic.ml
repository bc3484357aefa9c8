module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Layout = Mlo_layout.Layout
module Hierarchy = Mlo_cachesim.Hierarchy
module Address_map = Mlo_cachesim.Address_map

type segment = { first_nest : int; last_nest : int }

let uniform_segments prog k =
  let n = Array.length (Program.nests prog) in
  if k < 1 || k > n then invalid_arg "Dynamic.uniform_segments: bad count";
  List.init k (fun s ->
      let first = s * n / k in
      let last = ((s + 1) * n / k) - 1 in
      { first_nest = first; last_nest = last })

let segment_program prog seg =
  let nests = Program.nests prog in
  let n = Array.length nests in
  if seg.first_nest < 0 || seg.last_nest >= n || seg.first_nest > seg.last_nest
  then invalid_arg "Dynamic.segment_program: bad segment";
  let sub =
    Array.to_list (Array.sub nests seg.first_nest (seg.last_nest - seg.first_nest + 1))
  in
  Program.make
    ~name:(Printf.sprintf "%s.seg%d-%d" (Program.name prog) seg.first_nest seg.last_nest)
    (Array.to_list (Program.arrays prog))
    sub

type plan = {
  segments : segment list;
  per_segment : (string * Layout.t) list list;
  changes : (int * string) list;
}

let touched_by prog seg name =
  let nests = Program.nests prog in
  let rec go i =
    i <= seg.last_nest
    && (List.mem name (Loop_nest.arrays_touched nests.(i)) || go (i + 1))
  in
  go seg.first_nest

let plan ?candidates ?max_checks ~seed prog ~segments =
  let solved =
    List.map
      (fun seg ->
        let sub = segment_program prog seg in
        let sol =
          Optimizer.optimize ?candidates ?max_checks (Optimizer.Enhanced seed) sub
        in
        (seg, sol.Optimizer.layouts))
      segments
  in
  (* arrays a segment does not touch keep their previous layout: remapping
     them would be pure waste, and the sub-solver's choice for them is
     arbitrary *)
  let per_segment =
    match solved with
    | [] -> []
    | (first_seg, first) :: rest ->
      ignore first_seg;
      let _, acc =
        List.fold_left
          (fun (prev, acc) (seg, cur) ->
            let merged =
              List.map
                (fun (name, layout) ->
                  if touched_by prog seg name then (name, layout)
                  else
                    match List.assoc_opt name prev with
                    | Some keep -> (name, keep)
                    | None -> (name, layout))
                cur
            in
            (merged, merged :: acc))
          (first, [ first ]) rest
      in
      List.rev acc
  in
  let changes =
    match per_segment with
    | [] -> []
    | first :: rest ->
      let _, changes =
        List.fold_left
          (fun (prev, acc) (idx, cur) ->
            let acc =
              List.fold_left
                (fun acc (name, layout) ->
                  match List.assoc_opt name prev with
                  | Some old when not (Layout.equal old layout) ->
                    (idx, name) :: acc
                  | Some _ | None -> acc)
                acc cur
            in
            (cur, acc))
          (first, [])
          (List.mapi (fun i l -> (i + 1, l)) rest)
      in
      List.rev changes
  in
  { segments; per_segment; changes }

(* ------------------------------------------------------------------ *)
(* Optimal segmentation                                                 *)
(* ------------------------------------------------------------------ *)

module Locality = Mlo_layout.Locality

let optimal_segments ?candidates ?max_checks ?(change_cost = 10.0) ~seed prog =
  let nests = Program.nests prog in
  let n = Array.length nests in
  if n > 32 then
    invalid_arg "Dynamic.optimal_segments: too many nests for exact DP";
  (* the segment [i..j]'s program and the layouts of its enhanced
     solution, memoized; the program keeps the legal orders its solve
     staged *)
  let seg_solved = Hashtbl.create 64 in
  (* [None] marks a candidate segment whose network could not be solved
     within budget: the DP prices it as infinitely expensive rather than
     aborting (single-nest segments always remain as a fallback). *)
  let solved i j =
    match Hashtbl.find_opt seg_solved (i, j) with
    | Some r -> r
    | None ->
      let sub = segment_program prog { first_nest = i; last_nest = j } in
      let l =
        match
          Optimizer.optimize ?candidates ?max_checks (Optimizer.Enhanced seed)
            sub
        with
        | sol -> Some sol.Optimizer.layouts
        | exception Optimizer.No_solution _ -> None
      in
      Hashtbl.replace seg_solved (i, j) (sub, l);
      (sub, l)
  in
  let layouts_of i j = snd (solved i j) in
  (* locality left on the table by a segment under its own layouts:
     unserved reference iterations, after each nest picks its best legal
     loop order *)
  let max_ref_score = 5 in
  let seg_penalty i j =
    match solved i j with
    | _, None -> infinity
    | sub, Some layouts ->
    let lookup name = List.assoc_opt name layouts in
    let orders = Program.legal_orders sub in
    let total = ref 0.0 in
    for k = i to j do
      let v =
        Mlo_netgen.Select.best_variant
          (Mlo_netgen.Variants.of_orders nests.(k) orders.(k - i))
          lookup
      in
      let nest = v.Mlo_netgen.Variants.nest in
      let per_iter =
        Array.fold_left
          (fun acc a ->
            let s =
              match lookup (Access.array_name a) with
              | Some l -> Locality.score l a
              | None -> max_ref_score
            in
            acc + (max_ref_score - s))
          0 (Loop_nest.accesses nest)
      in
      total :=
        !total +. float_of_int (per_iter * Loop_nest.trip_count nest)
    done;
    !total
  in
  (* copy traffic paid when moving from segment [pi..pj] to [i..j] *)
  let transition (pi, pj) (i, j) =
    match (layouts_of pi pj, layouts_of i j) with
    | None, _ | _, None -> infinity
    | Some prev, Some cur ->
      Array.fold_left
        (fun acc info ->
          let name = Array_info.name info in
          if not (touched_by prog { first_nest = i; last_nest = j } name) then
            acc (* untouched arrays are not remapped (see plan) *)
          else
            match (List.assoc_opt name prev, List.assoc_opt name cur) with
            | Some a, Some b when not (Layout.equal a b) ->
              acc +. (change_cost *. float_of_int (Array_info.cells info))
            | _, _ -> acc)
        0.0 (Program.arrays prog)
  in
  (* g.(i).(j) = best cost covering [0..j] with last segment [i..j] *)
  let g = Array.make_matrix n n infinity in
  let choice = Array.make_matrix n n (-1) in
  for j = 0 to n - 1 do
    for i = 0 to j do
      let own = seg_penalty i j in
      if i = 0 then g.(i).(j) <- own
      else begin
        for i' = 0 to i - 1 do
          let c = g.(i').(i - 1) +. transition (i', i - 1) (i, j) +. own in
          if c < g.(i).(j) then begin
            g.(i).(j) <- c;
            choice.(i).(j) <- i'
          end
        done
      end
    done
  done;
  (* best last segment *)
  let best_i = ref 0 in
  for i = 1 to n - 1 do
    if g.(i).(n - 1) < g.(!best_i).(n - 1) then best_i := i
  done;
  let rec unwind i j acc =
    let seg = { first_nest = i; last_nest = j } in
    if i = 0 then seg :: acc
    else unwind choice.(i).(j) (i - 1) (seg :: acc)
  in
  unwind !best_i (n - 1) []

type report = {
  compute : Hierarchy.counters;
  copy_accesses : int;
  remaps : int;
}

(* Walk a nest, issuing every reference through the hierarchy at the
   addresses of the given map. *)
let run_nest hier amap nest =
  let accesses = Loop_nest.accesses nest in
  let names = Array.map Access.array_name accesses in
  Loop_nest.iter nest (fun iter ->
      Array.iteri
        (fun k a ->
          let element = Access.element_at a iter in
          ignore (Hierarchy.access hier (Address_map.address amap names.(k) element)))
        accesses)

(* Remap one array: read each element at its old address, write it at the
   new one. *)
let remap hier ~old_map ~new_map info =
  let name = Array_info.name info in
  let extents = Array_info.extents info in
  let rank = Array.length extents in
  let idx = Array.make rank 0 in
  let count = ref 0 in
  let rec go d =
    if d = rank then begin
      ignore (Hierarchy.access hier (Address_map.address old_map name idx));
      ignore (Hierarchy.access hier (Address_map.address new_map name idx));
      count := !count + 2
    end
    else
      for x = 0 to extents.(d) - 1 do
        idx.(d) <- x;
        go (d + 1)
      done
  in
  go 0;
  !count

let simulate_plan ?(config = Hierarchy.paper_config) prog plan =
  let hier = Hierarchy.create config in
  let copy_accesses = ref 0 in
  let remaps = ref 0 in
  let prev_map = ref None in
  List.iteri
    (fun i (seg, layouts) ->
      let lookup name = List.assoc_opt name layouts in
      let sub = segment_program prog seg in
      let restructured = Mlo_netgen.Select.restructure sub lookup in
      let amap = Address_map.build prog ~layouts:lookup in
      (match !prev_map with
      | None -> ()
      | Some (prev_amap, prev_layouts) ->
        Array.iter
          (fun info ->
            let name = Array_info.name info in
            let changed =
              match (List.assoc_opt name prev_layouts, lookup name) with
              | Some a, Some b -> not (Layout.equal a b)
              | _, _ -> false
            in
            if changed then begin
              incr remaps;
              copy_accesses :=
                !copy_accesses + remap hier ~old_map:prev_amap ~new_map:amap info
            end)
          (Program.arrays prog));
      ignore i;
      Array.iter (run_nest hier amap) (Program.nests restructured);
      prev_map := Some (amap, layouts))
    (List.combine plan.segments plan.per_segment);
  {
    compute = Hierarchy.counters hier;
    copy_accesses = !copy_accesses;
    remaps = !remaps;
  }
