module Loop_nest = Mlo_ir.Loop_nest
module Program = Mlo_ir.Program

module Locality = Mlo_layout.Locality

let best_variant variants lookup =
  match variants with
  | [] -> invalid_arg "Select.best_variant: nest has no legal variant"
  | first :: rest ->
    let score (v : Variants.t) = Locality.nest_score lookup v.Variants.nest in
    let best, _ =
      List.fold_left
        (fun (bv, bs) v ->
          let s = score v in
          if s > bs then (v, s) else (bv, bs))
        (first, score first)
        rest
    in
    best

let restructure prog lookup =
  let orders = Program.legal_orders prog in
  let nests =
    Array.to_list
      (Array.mapi
         (fun i nest ->
           (best_variant (Variants.of_orders nest orders.(i)) lookup)
             .Variants.nest)
         (Program.nests prog))
  in
  let arrays = Array.to_list (Program.arrays prog) in
  Program.make ~name:(Program.name prog) arrays nests
