(** Racing solver portfolio.

    Runs complementary solving strategies on the same compiled network —
    the paper's [enhanced] backjumper, its AC-preprocessed variant, the
    conflict-driven learner ({!Cdl}) and a stochastic min-conflicts
    member ({!Local_search.solve}) — and takes the first
    decisive answer.  Members race across a {!Mlo_support.Pool} Domain
    pool; the first to finish with a decision publishes it through an
    atomic and the losers are cancelled through the engines' cooperative
    [cancel] hook (polled on their check/step counters).

    A decision is [Solution] or [Unsatisfiable] from a systematic
    member, or a verified [Solution] from the stochastic member — a
    [Stuck] stochastic run proves nothing and never wins.  Every member
    is complete or sound-by-verification, so the portfolio is as
    decision-correct as its members; which member wins (and therefore
    which solution is returned) can vary across runs when Domains race,
    but the satisfiability verdict cannot.

    With one Domain the race degenerates to running the members in
    order, [cdl] first — so a single-core portfolio behaves like [cdl]
    with zero-cost fallbacks behind it. *)

type config = {
  seed : int;  (** seed for the members' random policies *)
  max_checks : int option;
      (** per-member check budget; the portfolio aborts only if every
          systematic member aborts *)
  cdl : Cdl.config;  (** configuration of the learning member *)
  local : Local_search.config;  (** configuration of the stochastic member *)
}

val default_config : config

val member_names : string array
(** Member labels in racing order:
    [[| "cdl"; "enhanced"; "enhanced-ac"; "local-search" |]]. *)

type report = {
  outcome : Solver.outcome;
  stats : Stats.t;
      (** merged across all members (work the race actually spent);
          elapsed/cpu are the race's own wall and CPU times, and
          [learned]/[forgotten]/[restarts] come from the learning
          member *)
  winner : string option;
      (** name of the member whose answer was taken; [None] when no
          member reached a decision (all aborted) *)
}

val race :
  ?config:config ->
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  ?on_learn:(dead:int -> (int * int) array -> unit) ->
  Compiled.t ->
  report
(** Race the members over [domains] Domains (default
    {!Mlo_support.Pool.default_domains}; the caller participates).
    [cancel] aborts the whole race (all members poll it in addition to
    the race's own decided flag).  Solutions are verified against the
    compiled network before being returned.  [on_learn] receives the
    conflict-driven member's learned nogoods — buffered during the race
    and replayed serially after it, and only when cdl actually won, so
    proofs never mix a cancelled loser's partial log into the winner's
    certificate. *)
