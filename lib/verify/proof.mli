(** Solver certificates: the [memlayout-proof/1] format.

    A proof is a newline-delimited JSON artifact emitted by
    [Optimizer.optimize ~proof] and checked — against the original,
    pre-preprocessing network — by {!Checker.check}. All variable and
    value indices in a proof refer to the {e original} network (before
    dominance pruning and before arc-consistency preprocessing);
    preprocessing itself appears as justified [Del] steps.

    The format is line-oriented so that partial proofs from aborted or
    cancelled runs are still parseable (and then rejected by the
    checker for lack of a supported verdict). *)

type del_reason =
  | Dominated of int
      (** The value was removed by dominance pruning; the payload is a
          kept value of the same variable that dominates it. *)
  | Arc_inconsistent
      (** The value was removed by AC preprocessing: it has no support
          in some neighboring domain. The checker re-derives this with
          its own propagation, so no witness is recorded. *)

type step =
  | Del of { var : int; value : int; reason : del_reason }
      (** Preprocessing removed [value] from [var]'s domain. *)
  | Comp of { id : int; vars : int array }
      (** Declares component [id] as the variable set [vars]. Every
          later step tagged with [id] may only involve these
          variables. *)
  | Ng of { comp : int; dead : int; lits : (int * int) array }
      (** A learned nogood: the assignments [lits] cannot all hold in
          any (cost-improving, under an optimality certificate)
          solution. [dead] is the variable whose domain wiped at the
          dead end — a hint telling the checker which variable to
          probe first. *)
  | Inc of { comp : int; lits : (int * int) array; cost : float }
      (** A branch-and-bound incumbent for component [comp]: a full,
          consistent assignment of the component's variables with the
          given separable cost. Lowers the component's bound. *)

type verdict =
  | Sat of int array
  | Unsat
  | Optimal of { cost : float; assignment : int array }
  | Aborted

type header = {
  workload : string;  (** suite workload name, for network rebuild *)
  scheme : string;  (** solver scheme label, informational *)
  objective : string option;  (** cost objective, for [Optimal] proofs *)
  pruned : bool;  (** whether dominance pruning ran *)
  slack : float;  (** bnb bound slack: the optimum is (1+slack)-approx *)
  names : string array;  (** variable (array) names, in index order *)
  domain_sizes : int array;  (** original domain sizes *)
  digest : string;  (** {!digest} of the original network *)
}

type t = { header : header; steps : step list; verdict : verdict option }

val schema : string
(** ["memlayout-proof/1"] *)

val digest : 'a Mlo_csp.Network.t -> string
(** FNV-1a 64-bit digest (16 hex chars) of the network's canonical
    description: variable names, domain sizes, and every constraint's
    allowed-pair bitmap. Two networks with the same digest have the
    same constraint structure for the checker's purposes. *)

(** {1 Recording a solver run}

    The one path from a solve to its certificate: pass [on_event r] as
    the engine's [?on_event] sink, then call {!certificate}. *)

type recorder

val recorder :
  ?costs:float array array -> ?survivors:int array array -> unit -> recorder
(** [costs] is the separable cost table of the solved network; giving it
    marks an optimizing (branch-and-bound) run.  [survivors.(i).(v)] is
    the original index of value [v] of the solved network's variable [i]
    after dominance pruning ({!Mlo_netgen.Prune.info}). *)

val on_event :
  recorder -> comp:int -> vars:int array -> Mlo_csp.Solver.event -> unit
(** The engines' [?on_event] sink.  Each component's events must arrive
    contiguously and in component order, as
    {!Mlo_csp.Solver.component_driver} replays them.  [Invalid_argument]
    on an [Incumbent] without [costs]. *)

val certificate :
  recorder ->
  workload:string ->
  scheme:string ->
  ?objective:string ->
  ?slack:float ->
  ?dels:step list ->
  'a Mlo_csp.Network.t ->
  Mlo_csp.Solver.result ->
  t
(** The certificate of the recorded solve against the original network:
    the header from [net] ([pruned] iff [survivors] were given), the
    deletions [dels], one [Comp] step per recorded component followed by
    its [Ng]/[Inc] steps, and the verdict.  An optimizing run's solution
    is [Optimal], at its {!Mlo_csp.Bnb.cost_of} cost, unless
    [stats.interrupted > 0]: that anytime answer is [Sat].  A [Sat] or
    [Aborted] optimizing run keeps only [dels], since its nogoods lean
    on incumbent bounds; an [Unsat] run keeps only the unsatisfiable
    components, without [Inc] steps. *)

val verdict_label : verdict -> string
(** ["sat"], ["unsat"], ["optimal"] or ["aborted"], as serialized. *)

val to_lines : t -> string list
(** One JSON object per line: header first, then steps in order, then
    the verdict (if any). *)

val of_lines : string list -> (t, string) result
(** Parse the NDJSON lines of a proof. Blank lines are skipped. A
    missing verdict yields [verdict = None] (the checker rejects it);
    malformed JSON or unknown step kinds are an [Error]. *)

val write : string -> t -> unit
(** [write path t] writes the proof to [path], one line per object. *)

val read : string -> (t, string) result
(** [read path] loads and parses a proof file. *)
