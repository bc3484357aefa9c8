(* Optimizing branch and bound: the search kernel (see kernel.ml) with
   forward checking, conflict-directed backjumping and the learned store,
   plus an admissible separable-cost bound, incumbent pruning and
   cost-aware value ordering as hooks.  Soundness notes beyond the
   kernel's:

   - The bound is kept as a drift-free per-level prefix: [acc.(l)] is
     the cost of the assignments at levels < l and [rem.(l)] the sum of
     the static (full-domain) per-variable minima of the variables
     unassigned at levels < l; both are extended by one addition per
     assignment and never subtracted from, so backtracking restores the
     parent's exact values by construction.  The live-domain refinement
     (per unassigned variable, min over the forward-checked domain minus
     the static minimum, always >= 0) is recomputed at each node.
   - A cost refutation is blamed on the levels of the assigned variables
     charged above their static minima, plus — for each refined
     unassigned variable — the levels that pruned its domain
     ([pruned_by]).  Under any other assignment holding exactly those
     literals the same charges and at least the same domain prunings
     recur, so the bound is at least as large and the refutation stands:
     cost conflict sets obey the same CBJ contract as wipeout ones, and
     supersets remain valid.
   - A nogood learned while an incumbent of cost B exists means "no
     completion holding these literals costs < B".  B only decreases and
     is always achieved by the stored incumbent, so replaying the nogood
     can only skip solutions that do not improve on the final answer.
     With no incumbent (unsatisfiable networks) every nogood is a plain
     constraint nogood, as in Cdl.
   - A solution leaf is treated as a refutation blamed on every level:
     the search resumes with the chronologically previous value, which
     keeps it exhaustive below the pruning bound. *)

module Trace = Mlo_obs.Trace

type config = {
  bound_slack : float;
  preprocess : Solver.preprocess;
  learn_limit : int;
  max_checks : int option;
}

let default_config =
  {
    bound_slack = 0.0;
    preprocess = Solver.No_preprocess;
    learn_limit = 4000;
    max_checks = None;
  }

let cost_of ~costs a =
  let total = ref 0.0 in
  Array.iteri (fun i v -> total := !total +. costs.(i).(v)) a;
  !total

let lower_bound ~costs ~assignment ~live =
  let total = ref 0.0 in
  Array.iteri
    (fun i row ->
      if assignment.(i) >= 0 then total := !total +. row.(assignment.(i))
      else begin
        let m = ref infinity in
        Array.iteri (fun v c -> if live i v && c < !m then m := c) row;
        total := !total +. !m
      end)
    costs;
  !total

let solve_compiled ?(config = default_config) ?cancel ?on_learn ?on_leaf ~costs
    comp =
  let n = Compiled.num_vars comp in
  if Float.is_nan config.bound_slack || config.bound_slack < 0.0 then
    invalid_arg "Bnb: bound_slack must be >= 0";
  if Array.length costs <> n then invalid_arg "Bnb: costs rank mismatch";
  Array.iteri
    (fun i row ->
      if Array.length row <> Compiled.domain_size comp i then
        invalid_arg "Bnb: costs domain mismatch")
    costs;
  if n = 0 then { Solver.outcome = Solution [||]; stats = Stats.create () }
  else
    let setup =
      {
        Kernel.span = "bnb-search";
        ac = config.preprocess = Solver.Arc_consistency;
        fc = true;
        backward = Conflict_directed;
        learn = Some config.learn_limit;
        degrees = false;
        max_checks = config.max_checks;
      }
    in
    Kernel.run ?cancel ?on_learn setup comp @@ fun st ->
    let { Kernel.level_of; assignment; domains; conf; pruned_by; lw; stats; _ }
        =
      st
    in
    let tr = Trace.enabled () in
    (* Static full-domain minima: admissible for the live domains too
       (a minimum over a superset can only be smaller). *)
    let static_min =
      Array.map (fun row -> Array.fold_left Float.min infinity row) costs
    in
    let total_static = Array.fold_left ( +. ) 0.0 static_min in
    let acc = Array.make (n + 1) 0.0 in
    let rem = Array.make (n + 1) total_static in

    (* The incumbent: best complete consistent assignment so far, with
       its canonical cost as the pruning bound. *)
    let incumbent = ref None in
    let bound = ref infinity in
    let record_incumbent () =
      let cost = cost_of ~costs assignment in
      if cost < !bound then begin
        bound := cost;
        (match !incumbent with
        | Some b -> Array.blit assignment 0 b 0 n
        | None -> incumbent := Some (Array.copy assignment));
        stats.Stats.incumbents <- stats.Stats.incumbents + 1;
        (match on_leaf with None -> () | Some f -> f (Array.copy assignment));
        if tr then
          Trace.instant ~cat:"solver" "incumbent"
            ~args:[ ("cost", Trace.Float cost) ]
      end
    in

    (* Smallest live domain, ties by higher degree then lower index: the
       optimality proof visits the whole bounded space, so the
       fail-first order pays twice. *)
    let select () =
      let best = ref (-1) and bd = ref max_int and bdeg = ref (-1) in
      for v = 0 to n - 1 do
        if level_of.(v) < 0 then begin
          let d = Bitset.count domains.(v) in
          let deg = Compiled.degree comp v in
          if d < !bd || (d = !bd && deg > !bdeg) then begin
            best := v;
            bd := d;
            bdeg := deg
          end
        end
      done;
      if !best < 0 then invalid_arg "Bnb: no unassigned variable";
      !best
    in

    (* Cheapest value first (ties by lower value index): the greedy first
       descent doubles as the first incumbent. *)
    let neg_costs = Array.map (Array.map Float.neg) costs in
    let order var level m = Kernel.sort_by st level m neg_costs.(var) 0 in

    (* Minimum cost over [j]'s live domain. *)
    let live_min j =
      let c = costs.(j) in
      let m = ref infinity in
      Bitset.iter (fun v -> if c.(v) < !m then m := c.(v)) domains.(j);
      !m
    in

    (* The bound test for the node just entered (the assignment at
       [level] is in place and its lookahead succeeded).  When it fires,
       the cost conflict set is merged into this level's row and the
       kernel treats the value like a wipeout. *)
    let refute var v level =
      acc.(level + 1) <- acc.(level) +. costs.(var).(v);
      rem.(level + 1) <- rem.(level) -. static_min.(var);
      !bound < infinity
      && begin
           let lb = ref (acc.(level + 1) +. rem.(level + 1)) in
           for j = 0 to n - 1 do
             if level_of.(j) < 0 then begin
               let m = live_min j in
               if m > static_min.(j) then lb := !lb +. (m -. static_min.(j))
             end
           done;
           let lb = !lb in
           if lb *. (1.0 +. config.bound_slack) < !bound then false
           else begin
             for y = 0 to n - 1 do
               let l = level_of.(y) in
               if l >= 0 && l < level && costs.(y).(assignment.(y)) > static_min.(y)
               then Lset.add conf (level * lw) l
             done;
             for j = 0 to n - 1 do
               if level_of.(j) < 0 && live_min j > static_min.(j) then
                 Lset.union_below pruned_by (j * lw) conf (level * lw) level lw
             done;
             stats.Stats.bounded <- stats.Stats.bounded + 1;
             if tr then
               Trace.instant ~cat:"solver" "bound-prune"
                 ~args:
                   [
                     ("lb", Trace.Float lb);
                     ("incumbent", Trace.Float !bound);
                     ("level", Trace.Int level);
                   ];
             true
           end
         end
    in

    (* Exhaust the tree; an interrupted search still returns its best
       consistent assignment when it has one (anytime). *)
    let best otherwise =
      match !incumbent with Some a -> Solver.Solution (Array.copy a) | None -> otherwise
    in
    let drive descend =
      match descend () with
      | (_ : bool) -> best Solver.Unsatisfiable
      | exception Kernel.Abort ->
        if Option.is_some !incumbent then
          stats.Stats.interrupted <- stats.Stats.interrupted + 1;
        best Solver.Aborted
    in
    {
      Kernel.select;
      order;
      refute = Some refute;
      conflict = None;
      leaf = Some record_incumbent;
      drive;
    }

let costs_of_network ~cost net =
  Array.init (Network.num_vars net) (fun i ->
      let name = Network.name net i in
      Array.init (Network.domain_size net i) (fun v -> cost name v))

let branch_and_bound ?(config = default_config) ?domains ?on_event ~cost net =
  Solver.component_driver ?domains ?on_event ~max_checks:config.max_checks
    ~run:(fun ~max_checks ~cancel ~on_learn ~on_leaf sub ->
      solve_compiled ~config:{ config with max_checks } ?cancel ?on_learn
        ?on_leaf
        ~costs:(costs_of_network ~cost sub)
        (Network.compile sub))
    net
