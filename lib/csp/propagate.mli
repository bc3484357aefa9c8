(** Constraint propagation: arc consistency (AC-3).

    Not part of the paper's two schemes.  The pipeline preprocesses with
    {!Ac2001}; this plain AC-3 is the reference fixpoint tests check it
    against.  Removing arc-inconsistent values before the search starts
    can never remove a solution, so any solver configuration run on the
    reduced network remains complete. *)

type outcome =
  | Reduced of Bitset.t array
      (** Arc-consistent domains, one bitset per variable (all
          non-empty). *)
  | Wiped of int  (** This variable's domain emptied: no solution. *)

val ac3 : 'a Network.t -> outcome
(** Standard AC-3 over the constraint graph.  The input network is not
    modified. *)

val revise : 'a Network.t -> Bitset.t array -> int -> int -> bool
(** [revise net domains i j] removes from [domains.(i)] every value with
    no support in [domains.(j)] under the constraint between [i] and [j];
    true iff something was removed.  No-op (false) for unconstrained
    pairs. *)
