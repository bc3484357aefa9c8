(** The compiled depth-first search kernel.

    {!Solver}, {!Cdl} and {!Bnb} are configurations of this one
    backtracking search.  The kernel owns everything they share: the
    level loop and the per-level candidate buffers; the node counters,
    depth/variable histograms and [decision] trace instants; the check
    budget and the [cancel] poll; optional AC-2001 preprocessing;
    forward-checking prune/trail/undo (or, without lookahead, the
    consistency check against the instantiated neighbours); the
    backward policy's conflict sets and backjump carry; and the optional
    learned-nogood store ({!Nogood}) with its propagation and learning.

    An engine supplies a {!setup} and a function building its {!hooks}
    from the freshly allocated {!state}; both are fixed for the whole
    solve, so the per-node cost of a hook is one closure call. *)

type outcome = Solution of int array | Unsatisfiable | Aborted
type result = { outcome : outcome; stats : Stats.t }
type backward = Chronological | Graph_based | Conflict_directed

exception Abort
(** Raised when the check budget is spent or [cancel] fires; {!run}
    turns it into [Aborted] unless [drive] catches it first. *)

type setup = {
  span : string;  (** name of the [solver] trace span around the search *)
  ac : bool;  (** run AC-2001 first *)
  fc : bool;  (** forward checking (otherwise check against the past) *)
  backward : backward;
  learn : int option;
      (** learned-nogood store with this limit; needs [fc] and
          [Conflict_directed] *)
  degrees : bool;  (** maintain [un_deg]/[as_deg] *)
  max_checks : int option;
}

type state = {
  comp : Compiled.t;
  n : int;
  stats : Stats.t;
  fc : bool;
  assignment : int array;  (** value per variable, [-1] when unassigned *)
  level_of : int array;  (** level per variable, [-1] when unassigned *)
  var_at : int array;  (** variable per level *)
  live : Bitset.t array option;  (** AC-reduced domains, when [ac] *)
  domains : Bitset.t array;  (** forward-checked domains ([[||]] without [fc]) *)
  trail : (int * int) list array;  (** prunings per level *)
  lw : int;  (** words per {!Lset} row *)
  conf : int array;  (** conflict set per level ([[||]] when chronological) *)
  pruned_by : int array;  (** levels that pruned each variable's domain *)
  un_deg : int array;
      (** unassigned neighbours per variable ([[||]] without [degrees]) *)
  as_deg : int array;  (** assigned neighbours per variable (likewise) *)
  store : Nogood.t option;
  lvars : int array;
  lvals : int array;
      (** the last dead end's culprit literals, ascending by level (valid
          during [conflict]) *)
  md : int;  (** stride of the candidate buffer *)
  cand : int array;  (** candidate values, one stride-[md] slice per level *)
  scores : float array;  (** scratch for {!sort_by} *)
}

type hooks = {
  select : unit -> int;  (** the next variable to instantiate *)
  order : int -> int -> int -> unit;
      (** [order var level m] permutes the [m] candidates of [var] in
          [cand] slice [level] (live, unbanned, ascending on entry) *)
  refute : (int -> int -> int -> bool) option;
      (** [refute var v level], after lookahead and nogood propagation
          accepted [var = v]: [true] kills the value like a wipeout, with
          its culprits added to [conf] row [level] *)
  conflict : (int -> int -> unit) option;
      (** [conflict var count] at every jumping dead end, after
          learning, with the [count] culprit literals in
          [lvars]/[lvals]; may raise to unwind the whole search *)
  leaf : (unit -> unit) option;
      (** at a complete assignment: [None] stops with it; [Some record]
          calls [record] and fails back to the previous level with every
          level blamed, so the search keeps exhausting the tree *)
  drive : (unit -> bool) -> outcome;
      (** runs the search: the argument descends from the root and says
          whether a leaf stopped it ([first] is the plain driver) *)
}

val run :
  ?cancel:(unit -> bool) ->
  ?on_learn:(dead:int -> (int * int) array -> unit) ->
  setup ->
  Compiled.t ->
  (state -> hooks) ->
  result
(** One solve.  [cancel] is polled every 256 checks; [on_learn] receives
    each learned nogood (a fresh literal array) with the dead-end
    variable.  Solutions are asserted against {!Compiled.verify}. *)

val first : state -> (unit -> bool) -> outcome
(** The first-solution driver: [Solution] of the assignment if the
    descent stopped at a leaf, [Unsatisfiable] otherwise. *)

val reset : state -> unit
(** Back to the root: every variable unassigned, fresh domains, empty
    trail and blame.  For drivers that restart after an unwind. *)

val reduce : state -> limit:int -> unit
(** Shrink the learned store to [limit] nogoods ({!Nogood.reduce}),
    counting the dropped ones in [stats.forgotten]. *)

val sort_by : state -> int -> int -> float array -> int -> unit
(** [sort_by st level m table base] sorts the [m] candidates [v] of
    slice [level] by [table.(base + v)] descending, ties by value
    ascending. *)
