module Program = Mlo_ir.Program
module Layout = Mlo_layout.Layout
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Stats = Mlo_csp.Stats
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Propagation = Mlo_heuristic.Propagation
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy
module Trace = Mlo_obs.Trace

type scheme =
  | Heuristic
  | Base of int
  | Enhanced of int
  | Enhanced_ac of int
  | Custom of Solver.config
  | Cdl of Mlo_csp.Cdl.config
  | Portfolio of Mlo_csp.Portfolio.config
  | Bnb of Mlo_csp.Bnb.config

type objective = Estimated_misses | Distinct_lines

type solution = {
  layouts : (string * Layout.t) list;
  restructured : Program.t;
  solver_stats : Stats.t option;
  heuristic_evaluations : int option;
  pruned_values : Mlo_netgen.Prune.info option;
  portfolio_winner : string option;
  objective_value : float option;
  elapsed_s : float;
}

exception No_solution of string

let config_of_scheme ?max_checks = function
  | Heuristic | Cdl _ | Portfolio _ | Bnb _ -> None
  | Base seed -> Some (Schemes.base ~seed ?max_checks ())
  | Enhanced seed -> Some (Schemes.enhanced ~seed ?max_checks ())
  | Enhanced_ac seed -> Some (Schemes.enhanced_with_ac ~seed ?max_checks ())
  | Custom c -> Some c

let scheme_label = function
  | Heuristic -> "heuristic"
  | Base _ -> "base"
  | Enhanced _ -> "enhanced"
  | Enhanced_ac _ -> "enhanced-ac"
  | Custom _ -> "custom"
  | Cdl _ -> "cdl"
  | Portfolio _ -> "portfolio"
  | Bnb _ -> "bnb"

let objective_label = function
  | Estimated_misses -> "misses"
  | Distinct_lines -> "lines"

let metric_of_objective = function
  | Estimated_misses -> Mlo_analysis.Locality.Misses
  | Distinct_lines -> Mlo_analysis.Locality.Lines

(* The separable layout charge the branch-and-bound scheme minimizes:
   one array under one candidate layout, every other array at its
   default, summed over the nests (Locality.profiler memoizes per
   program, so a second table over the same program pays lookups). *)
let layout_cost ~objective prog =
  let prof =
    Mlo_analysis.Locality.profiler ~metric:(metric_of_objective objective) prog
  in
  fun ~array_name ~layout ->
    Array.fold_left ( +. ) 0.0 (prof ~array_name ~layout)

(* [layouts] as a lookup function.  Restructuring asks it once per
   access of every legal variant of every nest; a list scan there cost
   O(arrays) per question, 45 of scale-1000's 50 ms restructure.  Build
   it once and ask it many times. *)
let lookup_of layouts =
  let table = Hashtbl.create (List.length layouts) in
  List.iter
    (fun (name, l) -> if not (Hashtbl.mem table name) then Hashtbl.add table name l)
    layouts;
  Hashtbl.find_opt table

let objective_of_label label =
  List.find_opt (fun o -> objective_label o = label)
    [ Estimated_misses; Distinct_lines ]

(* Rows fan out over [domains]; each worker writes only its own row and
   the profiler is safe to query concurrently, so the table is the
   serial one bit for bit. *)
let cost_table ?(domains = 1) ~objective prog net =
  let cost = layout_cost ~objective prog in
  let table = Array.make (Mlo_csp.Network.num_vars net) [||] in
  Mlo_support.Pool.parallel_iter ~domains (Array.length table) (fun i ->
      let array_name = Mlo_csp.Network.name net i in
      table.(i) <-
        Array.init (Mlo_csp.Network.domain_size net i) (fun v ->
            cost ~array_name ~layout:(Mlo_csp.Network.value net i v)));
  table

let optimize ?candidates ?max_checks ?(prune_dominated = false) ?(domains = 1)
    ?(objective = Estimated_misses) ?proof scheme prog =
  Trace.with_span ~cat:"optimizer" "optimize"
    ~args:
      [
        ("program", Trace.Str (Program.name prog));
        ("scheme", Trace.Str (scheme_label scheme));
      ]
  @@ fun () ->
  let t0 = Mlo_csp.Clock.wall_s () in
  match scheme with
  | Heuristic ->
    let r =
      Trace.with_span ~cat:"optimizer" "heuristic" (fun () ->
          Propagation.optimize prog)
    in
    let lookup = lookup_of r.Propagation.layouts in
    let restructured =
      Trace.with_span ~cat:"optimizer" "restructure" (fun () ->
          Select.restructure prog lookup)
    in
    {
      layouts = r.Propagation.layouts;
      restructured;
      solver_stats = None;
      heuristic_evaluations = Some r.Propagation.evaluations;
      pruned_values = None;
      portfolio_winner = None;
      objective_value = None;
      elapsed_s = Mlo_csp.Clock.wall_s () -. t0;
    }
  | Base _ | Enhanced _ | Enhanced_ac _ | Custom _ | Cdl _ | Portfolio _
  | Bnb _ ->
    let build0 =
      Trace.with_span ~cat:"optimizer" "build-network" (fun () ->
          Build.build ?candidates prog)
    in
    let build, prune_info =
      if prune_dominated then
        let b, info = Mlo_netgen.Prune.apply build0 in
        (b, Some info)
      else (build0, None)
    in
    let net = build.Build.network in
    let costs =
      match scheme with
      | Bnb _ ->
        Some
          (Trace.with_span ~cat:"optimizer" "cost-table" (fun () ->
               cost_table ~domains ~objective prog net))
      | _ -> None
    in
    let recorder =
      Option.map
        (fun _ ->
          Mlo_verify.Proof.recorder ?costs
            ?survivors:(Option.map (fun i -> i.Mlo_netgen.Prune.survivors) prune_info)
            ())
        proof
    in
    let on_event = Option.map Mlo_verify.Proof.on_event recorder in
    (* Certificates are stated against the *original* network [build0]:
       the recorder translates what the solvers report on the (possibly
       pruned) view, and the preprocessing deletions are derived here in
       original indices: dominance pruning's, then AC-2001's when the
       scheme preprocesses (a wipe needs no step: the checker's own
       fixpoint derives it). *)
    let dels () =
      let open Mlo_verify.Proof in
      let dominated, surv =
        match prune_info with
        | Some { Mlo_netgen.Prune.removed; survivors; _ } ->
          ( List.map
              (fun (var, value, by) -> Del { var; value; reason = Dominated by })
              removed,
            fun i v -> survivors.(i).(v) )
        | None -> ([], fun _ v -> v)
      in
      let preprocess =
        match scheme with
        | Cdl cfg -> cfg.Mlo_csp.Cdl.preprocess
        | Bnb cfg -> cfg.Mlo_csp.Bnb.preprocess
        | _ ->
          Option.fold ~none:Solver.No_preprocess
            ~some:(fun c -> c.Solver.preprocess)
            (config_of_scheme scheme)
      in
      let ac = ref [] in
      (if preprocess = Solver.Arc_consistency then
         match Mlo_csp.Ac2001.run (Mlo_csp.Network.compile net) with
         | Ok doms ->
           for i = Array.length doms - 1 downto 0 do
             for v = Mlo_csp.Network.domain_size net i - 1 downto 0 do
               if not (Mlo_csp.Bitset.mem doms.(i) v) then
                 ac := Del { var = i; value = surv i v; reason = Arc_inconsistent } :: !ac
             done
           done
         | Error _ -> ());
      dominated @ !ac
    in
    (* Component-wise search: independent subnetworks are solved
       separately (decision-equivalent to the whole-network solve; a
       single-component network takes the identical path), across
       [domains] worker domains when more than one is requested.  The
       portfolio instead races its members on the whole network, using
       [domains] to size the racing pool. *)
    let budget own = if max_checks = None then own else max_checks in
    let result, winner =
      match scheme with
      | Cdl cfg ->
        let cfg = { cfg with max_checks = budget cfg.Mlo_csp.Cdl.max_checks } in
        (Mlo_csp.Cdl.solve_components ~config:cfg ~domains ?on_event net, None)
      | Portfolio cfg ->
        let cfg =
          { cfg with max_checks = budget cfg.Mlo_csp.Portfolio.max_checks }
        in
        (* the race runs on the whole network, so its certificate is a
           single component covering every variable *)
        let vars = Array.init (Mlo_csp.Network.num_vars net) Fun.id in
        let on_learn =
          Option.map
            (fun f ~dead lits -> f ~comp:0 ~vars (Solver.Learned { dead; lits }))
            on_event
        in
        let r =
          Mlo_csp.Portfolio.race ~config:cfg ~domains ?on_learn
            (Mlo_csp.Network.compile net)
        in
        Option.iter
          (fun f ->
            f ~comp:0 ~vars (Solver.Finished r.Mlo_csp.Portfolio.outcome))
          on_event;
        ( {
            Solver.outcome = r.Mlo_csp.Portfolio.outcome;
            stats = r.Mlo_csp.Portfolio.stats;
          },
          r.Mlo_csp.Portfolio.winner )
      | Bnb cfg ->
        let cfg = { cfg with max_checks = budget cfg.Mlo_csp.Bnb.max_checks } in
        let costs = Option.get costs in
        let cost name v = costs.(Build.var_of_array build name).(v) in
        ( Trace.with_span ~cat:"optimizer" "bnb"
            ~args:[ ("objective", Trace.Str (objective_label objective)) ]
            (fun () ->
              Mlo_csp.Bnb.branch_and_bound ~config:cfg ~domains ?on_event
                ~cost net),
          None )
      | Heuristic | Base _ | Enhanced _ | Enhanced_ac _ | Custom _ ->
        let config =
          Option.get (config_of_scheme ?max_checks scheme)
        in
        (Solver.solve_components ~config ~domains net, None)
    in
    Option.iter
      (fun sink ->
        sink
          (Mlo_verify.Proof.certificate (Option.get recorder)
             ~workload:(Program.name prog) ~scheme:(scheme_label scheme)
             ?objective:(Option.map (fun _ -> objective_label objective) costs)
             ?slack:
               (match scheme with
               | Bnb cfg -> Some cfg.Mlo_csp.Bnb.bound_slack
               | _ -> None)
             ~dels:(dels ()) build0.Build.network result))
      proof;
    (match result.Solver.outcome with
    | Solver.Unsatisfiable ->
      let detail =
        match Mlo_analysis.Netcheck.unsat_core net with
        | Some (core, wiped) ->
          let name = Mlo_csp.Network.name net in
          Printf.sprintf
            "; no arc-consistent value for %s, minimal unsat core: %s"
            (name wiped)
            (String.concat ", "
               (List.map (fun (i, j) -> name i ^ "-" ^ name j) core))
        | None -> ""
      in
      raise
        (No_solution (Program.name prog ^ ": network unsatisfiable" ^ detail))
    | Solver.Aborted ->
      raise (No_solution (Program.name prog ^ ": check budget exhausted"))
    | Solver.Solution assignment ->
      let layouts = Build.assignment_layouts build assignment in
      let lookup = lookup_of layouts in
      let restructured =
        Trace.with_span ~cat:"optimizer" "restructure" (fun () ->
            Select.restructure prog lookup)
      in
      let objective_value =
        Option.map (fun costs -> Mlo_csp.Bnb.cost_of ~costs assignment) costs
      in
      {
        layouts;
        restructured;
        solver_stats = Some result.Solver.stats;
        heuristic_evaluations = None;
        pruned_values = prune_info;
        portfolio_winner = winner;
        objective_value;
        elapsed_s = Mlo_csp.Clock.wall_s () -. t0;
      })

let lookup sol = lookup_of sol.layouts

let simulate ?config sol =
  Simulate.run ?config sol.restructured ~layouts:(lookup sol)

let simulate_original ?config prog =
  Simulate.run ?config prog ~layouts:(fun _ -> None)

let simulate_versions ?config ?domains prog sols =
  match
    Simulate.run_batch ?config ?domains
      ((prog, fun _ -> None)
      :: List.map (fun sol -> (sol.restructured, lookup sol)) sols)
  with
  | original :: optimized -> (original, optimized)
  | [] -> assert false
