(** Loop-restructuring variants of a nest and the layouts they demand.

    Each constraint pair in the paper's network "represents the best
    layout choice under a given loop restructuring".  The restructurings
    considered are the dependence-legal loop permutations of the nest;
    for each one, every referenced array gets the layout that best serves
    the nest's accesses to it under the permuted iteration order. *)

type t = {
  perm : int array;  (** permutation applied (new depth -> old depth) *)
  nest : Mlo_ir.Loop_nest.t;  (** the restructured nest *)
}

val of_orders : Mlo_ir.Loop_nest.t -> int array list -> t list
(** [of_orders nest perms] applies each permutation to [nest], in
    order.  Given a nest's entry of {!Mlo_ir.Program.legal_orders}, these
    are its dependence-legal restructurings, identity first.  Callers
    build one nest's variants at a time: the whole program's at once
    would hold every permuted nest live together. *)

val demanded_layout :
  Mlo_ir.Loop_nest.t -> string -> Mlo_layout.Layout.t option
(** [demanded_layout nest name] is the best layout for array [name] under
    the nest's {e current} loop order: the candidate layout maximizing the
    summed locality score of the nest's references to the array.  [None]
    if the nest does not reference the array or no reference constrains
    the layout (pure temporal reuse). *)

val layouts_for : t -> (string * Mlo_layout.Layout.t) list
(** Demanded layouts for every array the variant's nest references (arrays
    with no layout demand omitted), in first-touch order. *)
