(* Racing portfolio: see portfolio.mli.  The race state is two atomics —
   a decided flag the engines poll through their [cancel] hooks, and a
   winner index claimed by compare-and-set so exactly one member
   publishes.  Everything the workers share (the compiled view, the
   member configs) is immutable; per-member results land in dedicated
   array slots. *)

module Trace = Mlo_obs.Trace

type config = {
  seed : int;
  max_checks : int option;
  cdl : Cdl.config;
  local : Local_search.config;
}

let default_config =
  {
    seed = 0;
    max_checks = None;
    cdl = Cdl.default_config;
    local = Local_search.default_config;
  }

let member_names = [| "cdl"; "enhanced"; "enhanced-ac"; "local-search" |]

type report = {
  outcome : Solver.outcome;
  stats : Stats.t;
  winner : string option;
}

(* Stochastic member's effort, folded into the merged stats: one
   reassignment step is the closest analogue of a node. *)
let stats_of_steps steps =
  let s = Stats.create () in
  s.Stats.nodes <- steps;
  s

let race ?(config = default_config) ?domains ?cancel ?on_learn comp =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Mlo_support.Pool.default_domains ()
  in
  let nmembers = Array.length member_names in
  let t_wall = Clock.wall_s () and t_cpu = Clock.cpu_s () in
  Trace.with_span ~cat:"solver" "portfolio"
    ~args:
      [
        ("members", Trace.Int nmembers);
        ("domains", Trace.Int (min domains nmembers));
      ]
  @@ fun () ->
  let decided = Atomic.make false in
  let winner = Atomic.make (-1) in
  let aborted_race () = match cancel with Some c -> c () | None -> false in
  let member_cancel () = Atomic.get decided || aborted_race () in
  let outcomes : Solver.outcome option array = Array.make nmembers None in
  let member_stats = Array.make nmembers None in
  let cdl_learned = ref [] in
  let claim k outcome =
    outcomes.(k) <- Some outcome;
    let decisive =
      match outcome with
      | Solver.Solution _ | Solver.Unsatisfiable -> true
      | Solver.Aborted -> false
    in
    if decisive && Atomic.compare_and_set winner (-1) k then
      Atomic.set decided true
  in
  let run k =
    if not (member_cancel ()) then
      match member_names.(k) with
      | "cdl" ->
        let cfg = { config.cdl with Cdl.max_checks = config.max_checks } in
        (* Only the cdl worker's Domain touches this buffer; it is
           replayed to the caller after the race, and only when cdl
           actually won, so a cancelled loser leaks no partial log. *)
        let learned = ref [] in
        let on_learn ~dead lits = learned := (dead, lits) :: !learned in
        let r =
          Cdl.solve_compiled ~config:cfg ~cancel:member_cancel ~on_learn comp
        in
        cdl_learned := List.rev !learned;
        member_stats.(k) <- Some r.Solver.stats;
        claim k r.Solver.outcome
      | "enhanced" ->
        let cfg =
          { (Schemes.enhanced ~seed:config.seed ()) with
            Solver.max_checks = config.max_checks }
        in
        let r = Solver.solve_compiled ~config:cfg ~cancel:member_cancel comp in
        member_stats.(k) <- Some r.Solver.stats;
        claim k r.Solver.outcome
      | "enhanced-ac" ->
        let cfg =
          { (Schemes.enhanced_with_ac ~seed:(config.seed + 101) ()) with
            Solver.max_checks = config.max_checks }
        in
        let r = Solver.solve_compiled ~config:cfg ~cancel:member_cancel comp in
        member_stats.(k) <- Some r.Solver.stats;
        claim k r.Solver.outcome
      | _ ->
        (* local-search: a Solution decides the race, a Stuck run proves
           nothing and simply records its effort *)
        let cfg = { config.local with Local_search.seed = config.seed + 211 } in
        let r = Local_search.solve ~config:cfg ~cancel:member_cancel comp in
        member_stats.(k) <- Some (stats_of_steps r.Local_search.steps);
        (match r.Local_search.outcome with
        | Local_search.Solution a -> claim k (Solver.Solution a)
        | Local_search.Stuck _ -> outcomes.(k) <- Some Solver.Aborted)
  in
  Mlo_support.Pool.parallel_iter ~domains:(min domains nmembers) nmembers run;
  let stats = Stats.create () in
  let merged =
    Array.fold_left
      (fun acc s -> match s with None -> acc | Some s -> Stats.add acc s)
      stats member_stats
  in
  merged.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
  merged.Stats.cpu_s <- Clock.cpu_s () -. t_cpu;
  let w = Atomic.get winner in
  let outcome =
    if w < 0 then Solver.Aborted
    else
      match outcomes.(w) with
      | Some o -> o
      | None -> Solver.Aborted (* unreachable: claimed means recorded *)
  in
  (match outcome with
  | Solver.Solution a -> assert (Compiled.verify comp a)
  | Solver.Unsatisfiable | Solver.Aborted -> ());
  let winner_name = if w < 0 then None else Some member_names.(w) in
  (match (on_learn, winner_name) with
  | Some f, Some "cdl" ->
      List.iter (fun (dead, lits) -> f ~dead lits) !cdl_learned
  | _ -> ());
  Trace.instant ~cat:"solver" "portfolio-winner"
    ~args:
      [
        ( "winner",
          Trace.Str (match winner_name with Some n -> n | None -> "none") );
      ];
  { outcome; stats = merged; winner = winner_name }
