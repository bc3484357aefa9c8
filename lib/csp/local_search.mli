(** Min-conflicts local search over constraint networks.

    A contrasting solution method to the systematic search of {!Solver}:
    start from a random complete assignment and repeatedly reassign a
    conflicted variable to the value violating the fewest constraints
    (ties broken randomly), with random restarts.  Incomplete — it can
    neither prove unsatisfiability nor guarantee a solution — but often
    very fast on loosely constrained networks, making it a useful
    ablation against the paper's backtracking schemes. *)

type config = {
  seed : int;
  max_steps : int;  (** reassignments per restart *)
  restarts : int;
}

val default_config : config
(** seed 0, 10_000 steps, 10 restarts. *)

type outcome =
  | Solution of int array
  | Stuck of int array * int
      (** best assignment found and its number of violated constraints *)

type result = {
  outcome : outcome;
  steps : int;  (** total reassignments across restarts *)
}

val solve : ?config:config -> ?cancel:(unit -> bool) -> Compiled.t -> result
(** Runs min-conflicts on the compiled view ({!Network.compile}).  A
    returned [Solution] always satisfies {!Compiled.verify}.
    {!Compiled.t} is immutable, so this is safe to run on a worker Domain
    while siblings read the same view.  [cancel] is polled every few
    reassignments; a cancelled run returns its best-so-far [Stuck].  The
    stochastic member of the racing portfolio. *)

val conflicts : Compiled.t -> int array -> int
(** Number of constraints a complete assignment violates. *)
