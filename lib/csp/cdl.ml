(* Conflict-driven engine: the search kernel (see kernel.ml, which also
   holds the soundness notes for nogood learning) with forward checking,
   conflict-directed backjumping and the learned store, plus VSIDS
   activities and Luby restarts as hooks. *)

module Trace = Mlo_obs.Trace

type config = {
  restarts : int;
  restart_base : int;
  learn_limit : int;
  preprocess : Solver.preprocess;
  max_checks : int option;
}

let default_config =
  {
    restarts = 50;
    restart_base = 100;
    learn_limit = 4000;
    preprocess = Solver.No_preprocess;
    max_checks = None;
  }

(* luby 1, 2, 3, ... = 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

exception Restart_now

(* The kernel with forward checking, conflict-directed jumping and the
   learned store, plus VSIDS ordering and the Luby restart loop. *)
let solve_compiled ?(config = default_config) ?cancel ?on_learn comp =
  let setup =
    {
      Kernel.span = "cdl-search";
      ac = config.preprocess = Solver.Arc_consistency;
      fc = true;
      backward = Conflict_directed;
      learn = Some config.learn_limit;
      degrees = false;
      max_checks = config.max_checks;
    }
  in
  Kernel.run ?cancel ?on_learn setup comp @@ fun st ->
  let { Kernel.n; md; level_of; domains; stats; _ } = st in
  let store = Option.get st.Kernel.store in
  (* VSIDS state: variable and (variable, value) activities.  [vact]
     starts at the static degree so the pre-conflict order matches the
     most-constraining heuristic; value activities start flat. *)
  let vact = Array.init n (fun v -> float_of_int (Compiled.degree st.comp v)) in
  let qact = Array.make (n * md) 0.0 in
  let inc = ref 1.0 in
  let decay_rate = 0.95 in
  let rescale () =
    if !inc > 1e100 then begin
      for v = 0 to n - 1 do
        vact.(v) <- vact.(v) *. 1e-100
      done;
      for i = 0 to (n * md) - 1 do
        qact.(i) <- qact.(i) *. 1e-100
      done;
      inc := !inc *. 1e-100
    end
  in
  (* VSIDS variable selection: highest activity, ties by smaller
     current domain, then lower index. *)
  let select () =
    let best = ref (-1) in
    let ba = ref 0.0 and bd = ref 0 in
    for v = 0 to n - 1 do
      if level_of.(v) < 0 then
        if !best < 0 then begin
          best := v;
          ba := vact.(v);
          bd := Bitset.count domains.(v)
        end
        else if vact.(v) > !ba then begin
          best := v;
          ba := vact.(v);
          bd := Bitset.count domains.(v)
        end
        else if vact.(v) = !ba then begin
          let d = Bitset.count domains.(v) in
          if d < !bd then begin
            best := v;
            bd := d
          end
        end
    done;
    if !best < 0 then invalid_arg "Cdl: no unassigned variable";
    !best
  in
  (* values by activity, descending; ties by lower value index *)
  let order var level m = Kernel.sort_by st level m qact (var * md) in
  (* Per-run conflict budget; Restart_now unwinds to the run loop. *)
  let budget = ref max_int in
  let conflicts = ref 0 in
  (* Conflict-side VSIDS: bump every culprit and the dead-end variable;
     each learned nogood counts against the run's budget. *)
  let conflict var cnt =
    for i = 0 to cnt - 1 do
      let y = st.lvars.(i) and u = st.lvals.(i) in
      vact.(y) <- vact.(y) +. !inc;
      qact.((y * md) + u) <- qact.((y * md) + u) +. !inc
    done;
    vact.(var) <- vact.(var) +. !inc;
    inc := !inc /. decay_rate;
    rescale ();
    if cnt > 0 then begin
      Nogood.decay store;
      incr conflicts;
      if !conflicts > !budget then raise Restart_now
    end
  in
  let rec run descend i =
    budget :=
      if i < config.restarts then config.restart_base * luby (i + 1)
      else max_int;
    conflicts := 0;
    match Kernel.first st descend with
    | outcome -> outcome
    | exception Restart_now ->
      stats.Stats.restarts <- stats.Stats.restarts + 1;
      if Trace.enabled () then
        Trace.instant ~cat:"solver" "restart"
          ~args:
            [
              ("run", Trace.Int (i + 1));
              ("learned", Trace.Int (Nogood.size store));
            ];
      Kernel.reduce st ~limit:config.learn_limit;
      Kernel.reset st;
      run descend (i + 1)
  in
  {
    Kernel.select;
    order;
    refute = None;
    conflict = Some conflict;
    leaf = None;
    drive = (fun descend -> run descend 0);
  }

let solve ?config net = solve_compiled ?config (Network.compile net)

let solve_components ?(config = default_config) ?domains ?on_event net =
  Solver.component_driver ?domains ?on_event ~max_checks:config.max_checks
    ~run:(fun ~max_checks ~cancel ~on_learn ~on_leaf:_ sub ->
      solve_compiled ~config:{ config with max_checks } ?cancel ?on_learn
        (Network.compile sub))
    net
