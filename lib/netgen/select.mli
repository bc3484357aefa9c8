(** Choosing the loop restructuring once layouts are fixed.

    Code generation (and our cache simulation) needs a concrete loop
    order for every nest.  Given the final per-array layouts, each nest
    independently picks the dependence-legal permutation with the best
    total locality score — the loop-transformation half of the paper's
    combined loop+data optimization. *)

val best_variant :
  Variants.t list -> (string -> Mlo_layout.Layout.t option) -> Variants.t
(** [best_variant variants lookup] is the variant whose accesses score
    best under the layouts given by [lookup]; ties favour the earlier
    one, so on one nest's legal variants ({!Variants.of_orders}) the
    original loop order.  Raises [Invalid_argument] on [[]]. *)

val restructure :
  Mlo_ir.Program.t ->
  (string -> Mlo_layout.Layout.t option) ->
  Mlo_ir.Program.t
(** Applies {!best_variant} to every nest's legal variants, reading the
    program's staged orders ({!Mlo_ir.Program.legal_orders}). *)
