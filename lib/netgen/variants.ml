module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Layout = Mlo_layout.Layout
module Locality = Mlo_layout.Locality

type t = { perm : int array; nest : Loop_nest.t }

let of_orders nest perms =
  List.map (fun perm -> { perm; nest = Loop_nest.permute nest perm }) perms

let demanded_layout nest name =
  let accesses =
    Array.to_list (Loop_nest.accesses nest)
    |> List.filter (fun a -> String.equal (Access.array_name a) name)
  in
  if accesses = [] then None
  else begin
    let candidates = List.filter_map Locality.preferred_layout accesses in
    if candidates = [] then None
    else begin
      (* dedup, preserving preference order *)
      let uniq =
        List.fold_left
          (fun acc l -> if List.exists (Layout.equal l) acc then acc else l :: acc)
          [] candidates
        |> List.rev
      in
      let score l =
        List.fold_left (fun s a -> s + Locality.score l a) 0 accesses
      in
      let best =
        List.fold_left
          (fun (bl, bs) l ->
            let s = score l in
            if s > bs then (l, s) else (bl, bs))
          (List.hd uniq, score (List.hd uniq))
          (List.tl uniq)
      in
      Some (fst best)
    end
  end

let layouts_for v =
  List.filter_map
    (fun name ->
      match demanded_layout v.nest name with
      | Some l -> Some (name, l)
      | None -> None)
    (Loop_nest.arrays_touched v.nest)
