(* Request-level pipeline benchmark.

   One client in a closed loop: the next request is sent when the
   previous one has answered.  A request is what `layoutopt solve
   --proof` followed by `layoutopt verify` does (or `optimize-file
   --simulate` for .mlo text): resolve the input to a fresh program
   object, run [Optimizer.optimize] with a certificate sink, simulate
   the emitted program where the CLI would, rebuild the network and
   check the certificate.  Every answer is then judged by an oracle
   that is independent of the timed code path.

   With [--trace 0] the run reports the end-to-end metrics.  With
   [--trace 1] every request is followed by a replay of the same
   request that calls each layer's public entry point on its own,
   inside spans recorded by this file (Mlo_obs.Trace stays off); the
   spans give the per-layer metrics and are written at exit in the
   Chrome trace-event format `layoutopt trace-summary` reads.

   run.py builds this program, runs it and adds the set-up time; see
   README.md for the workloads and the reason each metric was chosen. *)

module Program = Mlo_ir.Program
module Loop_nest = Mlo_ir.Loop_nest
module Dependence = Mlo_ir.Dependence
module Presburger = Mlo_ir.Presburger
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Stats = Mlo_csp.Stats
module Bnb = Mlo_csp.Bnb
module Cdl = Mlo_csp.Cdl
module Schemes = Mlo_csp.Schemes
module Clock = Mlo_csp.Clock
module Pool = Mlo_support.Pool
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Locality = Mlo_analysis.Locality
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy
module Proof = Mlo_verify.Proof
module Checker = Mlo_verify.Checker
module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Parser = Mlo_lang.Parser
module Optimizer = Mlo_core.Optimizer
module Trace_summary = Mlo_obs.Trace_summary

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type source =
  | Named of string  (** a workload name, resolved by [Suite.by_name] *)
  | Mlo of string  (** a program file under perfbench/programs *)
  | Generated of (int -> Spec.t)  (** a family member built from the seed *)

type expect = {
  sat : bool option;  (** required satisfiability *)
  layouts : (string * Layout.t) list;  (** required layout choices *)
  max_cycles : int option;  (** bound on the emitted program's cycles *)
}

let no_expectation = { sat = None; layouts = []; max_cycles = None }
let sat = { no_expectation with sat = Some true }
let unsat = { no_expectation with sat = Some false }

type item = {
  label : string;
  source : source;
  scheme : Optimizer.scheme;
  domains : int;
  simulate : bool;  (** also restructure and simulate the emitted code *)
  expect : expect;
  shape : (int * int * int * int) option;
      (** arrays, nests, network components and domain values, as the
          generators produce them today *)
}

let bnb = Optimizer.Bnb Bnb.default_config

(* The CLI's default solver seed is 1. *)
let enhanced = Optimizer.Enhanced 1
let cdl = Optimizer.Cdl Cdl.default_config

let item ?(domains = 1) ?(expect = no_expectation) ?shape ~simulate label
    source scheme =
  { label; source; scheme; domains; simulate; expect; shape }

(* A workload is a mix of timed requests over pinned inputs, plus
   probes: members of the same generator families built from the
   benchmark seed, solved once after the timed loop and judged on
   certificate acceptance only.  The timed inputs do not follow the
   seed because the generated families' effort varies too much with it
   to measure a change against (README.md, "Seeds"). *)
type workload = { items : item list; probes : item list }

(* The generator seeds of the scale and hard families are the families'
   defaults plus the benchmark seed. *)
let scale_probe ~domains n =
  item ~domains ~simulate:true
    (Printf.sprintf "scale-%d@seed" n)
    (Generated (fun seed -> Suite.scale ~seed:(11 + seed) n))
    bnb

let hard_probe n =
  item ~simulate:false
    (Printf.sprintf "hard-%d/cdl@seed" n)
    (Generated (fun seed -> Suite.hard ~seed:(23 + seed) n))
    cdl

(* suite-bnb: the paper's own inputs, five by name and three as .mlo
   text, all under branch and bound with the misses objective.  The
   programs are small, so per-request fixed costs dominate. *)
let suite_bnb =
  let named name shape expect =
    item ~simulate:true ~shape ~expect name (Named name) bnb
  in
  let mlo file shape expect =
    item ~simulate:true ~shape ~expect file (Mlo file) bnb
  in
  {
    items =
      [
        named "med-im04" (52, 120, 1, 258) { sat with max_cycles = Some 1630436 };
        named "mxm" (5, 5, 1, 34) sat;
        named "radar" (57, 399, 1, 422) sat;
        named "shape" (80, 562, 1, 656) sat;
        named "track" (47, 470, 1, 388) sat;
        mlo "fig2.mlo" (2, 1, 1, 6)
          {
            sat with
            layouts = [ ("Q1", Layout.diagonal2); ("Q2", Layout.col_major 2) ];
          };
        mlo "matmul.mlo" (5, 4, 1, 10) sat;
        mlo "nonuniform.mlo" (2, 2, 2, 4) sat;
      ];
    probes = [];
  }

(* scale-1000-bnb: one large component-rich program on two Domains.
   The cost table dominates, so per-request fixed costs barely show. *)
let scale_1000_bnb =
  {
    items =
      [
        item ~domains:2 ~simulate:true ~shape:(1000, 617, 442, 2760)
          ~expect:sat "scale-1000" (Named "scale-1000") bnb;
      ];
    probes = [ scale_probe ~domains:2 1000 ];
  }

(* hard-search: a satisfiable and an unsatisfiable instance near the
   phase transition, each under the enhanced backjumper and the
   learning solver.  No cost table is built; search and the proof
   check do most of the work. *)
let hard_search =
  let hard n scheme label expect =
    item ~simulate:false ~shape:(n, 2 * n, 1, 3 * n) ~expect
      (Printf.sprintf "hard-%d/%s" n label)
      (Named (Printf.sprintf "hard-%d" n))
      scheme
  in
  {
    items =
      [
        hard 80 enhanced "enhanced" sat;
        hard 80 cdl "cdl" sat;
        hard 200 enhanced "enhanced" unsat;
        hard 200 cdl "cdl" unsat;
      ];
    probes = [ hard_probe 80; hard_probe 200 ];
  }

let workloads =
  [
    ("suite-bnb", suite_bnb);
    ("scale-1000-bnb", scale_1000_bnb);
    ("hard-search", hard_search);
  ]

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

type input = {
  prog : Program.t;
  sim : Program.t;  (** the program the emitted code is simulated on *)
  candidates : (string -> Layout.t list) option;
}

let of_spec (s : Spec.t) =
  { prog = s.Spec.program; sim = s.Spec.sim_program; candidates = Some s.Spec.candidates }

(* Program texts are read once at set-up, as a service would hold them;
   parsing them is part of every request. *)
let texts : (string, string) Hashtbl.t = Hashtbl.create 4

let load_texts items =
  List.iter
    (fun it ->
      match it.source with
      | Mlo file ->
        Hashtbl.replace texts file
          (In_channel.with_open_bin
             (Filename.concat "perfbench/programs" file)
             In_channel.input_all)
      | Named _ | Generated _ -> ())
    items

let resolve ~seed = function
  | Named name -> of_spec (Suite.by_name name)
  | Generated family -> of_spec (family seed)
  | Mlo file ->
    let p = Parser.parse ~name:file (Hashtbl.find texts file) in
    { prog = p; sim = p; candidates = None }

type outcome = {
  input : input;
  solution : (Optimizer.solution, string) result;
  proof : Proof.t option;
  emitted : (Program.t * Simulate.report) option;
      (** restructured simulation program and its simulation *)
  net : Layout.t Network.t;  (** the verifier's rebuilt network *)
  check : (unit, string) result;  (** [Checker.check] of the certificate *)
}

let cost_table ?(domains = 1) prog (net : Layout.t Network.t) =
  let cost =
    Optimizer.layout_cost ~objective:Optimizer.Estimated_misses prog
  in
  let table = Array.make (Network.num_vars net) [||] in
  Pool.parallel_iter ~domains (Network.num_vars net) (fun i ->
      let name = Network.name net i in
      table.(i) <-
        Array.init (Network.domain_size net i) (fun v ->
            cost ~array_name:name ~layout:(Network.value net i v)));
  table

let optimal_costs input net proof =
  match proof.Proof.verdict with
  | Some (Proof.Optimal _) -> Some (cost_table input.prog net)
  | _ -> None

let check_certificate input net proof =
  match proof with
  | None -> Error "no certificate emitted"
  | Some p -> Checker.check ?costs:(optimal_costs input net p) net p

let emit input (sol : Optimizer.solution) =
  let lookup = Optimizer.lookup sol in
  let program =
    if input.sim == input.prog then sol.Optimizer.restructured
    else Select.restructure input.sim lookup
  in
  (program, Simulate.run program ~layouts:lookup)

(* One untraced request. *)
let request ~seed it =
  let input = resolve ~seed it.source in
  let proof = ref None in
  let solution =
    match
      Optimizer.optimize ?candidates:input.candidates ~domains:it.domains
        ~proof:(fun p -> proof := Some p)
        it.scheme input.prog
    with
    | sol -> Ok sol
    | exception Optimizer.No_solution msg -> Error msg
  in
  let emitted =
    match solution with
    | Ok sol when it.simulate -> Some (emit input sol)
    | Ok _ | Error _ -> None
  in
  (* the verifier rebuilds the network, as `layoutopt verify` does, so
     the check trusts nothing the optimizer built *)
  let net = (Build.build ?candidates:input.candidates input.prog).Build.network in
  let check = check_certificate input net !proof in
  { input; solution; proof = !proof; emitted; net; check }

(* ------------------------------------------------------------------ *)
(* The oracle                                                           *)
(* ------------------------------------------------------------------ *)

let accesses_of prog =
  Array.fold_left
    (fun acc n ->
      acc + (Loop_nest.trip_count n * Array.length (Loop_nest.accesses n)))
    0 (Program.nests prog)

let layouts_of_assignment net a =
  Array.to_list
    (Array.mapi (fun i v -> (Network.name net i, Network.value net i v)) a)

let same_layouts a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, l1) (n2, l2) -> String.equal n1 n2 && Layout.equal l1 l2)
       a b

let describe_layout name layouts =
  match List.assoc_opt name layouts with
  | Some l -> Layout.describe l
  | None -> "none"

(* Every reason the answer is wrong; [] means correct. *)
let judge ~expect (o : outcome) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  (match o.check with
  | Ok () -> ()
  | Error msg -> fail "certificate rejected: %s" msg);
  (match (o.solution, Option.bind o.proof (fun p -> p.Proof.verdict)) with
  | Ok sol, Some (Proof.Sat a) ->
    if not (same_layouts sol.Optimizer.layouts (layouts_of_assignment o.net a))
    then fail "layouts differ from the certified assignment"
  | Ok sol, Some (Proof.Optimal { cost; assignment }) -> (
    if
      not
        (same_layouts sol.Optimizer.layouts
           (layouts_of_assignment o.net assignment))
    then fail "layouts differ from the certified optimum";
    match sol.Optimizer.objective_value with
    | Some v when Float.abs (v -. cost) <= 1e-6 *. Float.max 1.0 (Float.abs v)
      ->
      ()
    | Some v -> fail "objective %.17g differs from certified cost %.17g" v cost
    | None -> fail "optimal certificate without an objective value")
  | Error _, Some Proof.Unsat -> ()
  | Ok _, _ -> fail "solved, but the certificate does not claim a solution"
  | Error msg, _ -> fail "unsolved (%s), but the certificate is not UNSAT" msg);
  (match o.emitted with
  | Some (prog, report) ->
    let want = accesses_of o.input.sim in
    let got = report.Simulate.counters.Hierarchy.accesses in
    if got <> want then
      fail "emitted %s simulates %d accesses, the original %d"
        (Program.name prog) got want
  | None -> ());
  (match (expect.sat, o.solution) with
  | Some true, Error msg -> fail "expected SAT, got: %s" msg
  | Some false, Ok _ -> fail "expected UNSAT, got a solution"
  | _ -> ());
  (match o.solution with
  | Ok sol ->
    List.iter
      (fun (name, want) ->
        match Optimizer.lookup sol name with
        | Some l when Layout.equal l want -> ()
        | _ ->
          fail "%s: expected %s, got %s" name (Layout.describe want)
            (describe_layout name sol.Optimizer.layouts))
      expect.layouts
  | Error _ -> ());
  (match (expect.max_cycles, o.emitted) with
  | Some bound, Some (_, r) when Simulate.cycles r > bound ->
    fail "emitted program takes %d cycles, above %d" (Simulate.cycles r) bound
  | Some _, None -> fail "cycle bound set but nothing was simulated"
  | _ -> ());
  List.rev !fails

(* The oracle's self-test: a tampered certificate and a wrong expected
   answer must each be judged a failure.  Returns the mutations the
   oracle let through. *)
let self_test (it, (o : outcome)) =
  let tampered =
    match o.proof with
    | None -> None
    | Some p ->
      let verdict =
        match p.Proof.verdict with
        | Some (Proof.Optimal { cost; assignment }) ->
          (* claims a cheaper optimum than the assignment costs *)
          Some (Proof.Optimal { cost = (cost *. 0.5) -. 1.0; assignment })
        | Some (Proof.Sat _) -> Some Proof.Unsat
        | Some Proof.Unsat ->
          (* no assignment satisfies an unsatisfiable network *)
          Some (Proof.Sat (Array.make (Network.num_vars o.net) 0))
        | Some Proof.Aborted | None -> Some Proof.Unsat
      in
      let p = { p with Proof.verdict } in
      Some { o with proof = Some p; check = check_certificate o.input o.net (Some p) }
  in
  let wrong_expectation =
    match o.solution with
    | Error _ -> { no_expectation with sat = Some true }
    | Ok sol -> (
      match sol.Optimizer.layouts with
      | (name, l) :: _ ->
        let other =
          if Layout.equal l (Layout.row_major (Layout.rank l)) then
            Layout.col_major (Layout.rank l)
          else Layout.row_major (Layout.rank l)
        in
        { no_expectation with layouts = [ (name, other) ] }
      | [] -> { no_expectation with sat = Some false })
  in
  let missed = ref [] in
  (match tampered with
  | Some t when judge ~expect:no_expectation t = [] ->
    missed := (it.label ^ ": tampered certificate passed") :: !missed
  | Some _ -> ()
  | None -> missed := (it.label ^ ": no certificate to tamper with") :: !missed);
  if judge ~expect:wrong_expectation o = [] then
    missed := (it.label ^ ": wrong expected answer passed") :: !missed;
  List.rev !missed

(* ------------------------------------------------------------------ *)
(* Traced replay                                                        *)
(* ------------------------------------------------------------------ *)

(* Spans are kept in memory as begin/end events and written at exit.
   [acc] sums span time (ms) and counters per metric name for the pass
   being measured. *)
type event = { ph : char; cat : string; name : string; ts_us : float; args : string }

let events : event list ref = ref []
let next_id = ref 0
let parents : int list ref = ref []
let request_id = ref 0
let acc : (string, float) Hashtbl.t = Hashtbl.create 32

let add metric v =
  Hashtbl.replace acc metric (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc metric))

let now_us () = float_of_int (Clock.wall_ns ()) /. 1e3

(* [span cat name f] records one span whose duration is added to the
   metric [cat ^ "." ^ name ^ "_ms"]. *)
let span cat name f =
  incr next_id;
  let id = !next_id in
  let parent = match !parents with p :: _ -> p | [] -> 0 in
  let t0 = now_us () in
  events :=
    {
      ph = 'B';
      cat;
      name;
      ts_us = t0;
      args = Printf.sprintf "{\"req\":%d,\"id\":%d,\"parent\":%d}" !request_id id parent;
    }
    :: !events;
  parents := id :: !parents;
  let finish () =
    let t1 = now_us () in
    parents := List.tl !parents;
    events := { ph = 'E'; cat; name; ts_us = t1; args = "" } :: !events;
    add (cat ^ "." ^ name ^ "_ms") ((t1 -. t0) /. 1e3)
  in
  Fun.protect ~finally:finish f

let write_trace path =
  let oc = open_out_bin path in
  output_string oc "[";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":0%s}"
        e.name e.cat e.ph e.ts_us
        (if e.args = "" then "" else ",\"args\":" ^ e.args))
    (List.rev !events);
  output_string oc "]\n";
  close_out oc

let search it ~cost net =
  match it.scheme with
  | Optimizer.Bnb config ->
    Bnb.branch_and_bound ~config ~domains:it.domains ~cost net
  | Optimizer.Cdl config -> Cdl.solve_components ~config ~domains:it.domains net
  | Optimizer.Enhanced seed ->
    Solver.solve_components ~config:(Schemes.enhanced ~seed ())
      ~domains:it.domains net
  | _ -> invalid_arg "search: scheme not used by any workload"

(* The traced replay of request [it]: the same work as [request], each
   layer called through its public entry point inside a span.  Proof
   assembly, the unsat core and network compilation happen inside
   [Optimizer.optimize] only, so they show as [core.unattributed_ms].
   The certificate checked is the one [untraced] produced for the same
   input.  Returns the replay's failures. *)
let traced_request ~seed it (untraced : outcome) =
  span "core" "request" @@ fun () ->
  let input =
    match it.source with
    | Mlo _ -> span "lang" "parse" (fun () -> resolve ~seed it.source)
    | Named _ | Generated _ ->
      span "workloads" "lookup" (fun () -> resolve ~seed it.source)
  in
  (* drill-down: Build.build repeats this analysis internally *)
  span "ir" "deps" (fun () ->
      Array.iter (fun n -> ignore (Dependence.deps n)) (Program.nests input.prog));
  let build =
    span "netgen" "build" (fun () -> Build.build ?candidates:input.candidates input.prog)
  in
  let net = build.Build.network in
  add "netgen.domain_values" (float_of_int (Network.total_domain_size net));
  add "netgen.constraints" (float_of_int (Network.num_constraints net));
  add "netgen.components" (float_of_int (Array.length (Network.components net)));
  let cost =
    match it.scheme with
    | Optimizer.Bnb _ ->
      let table =
        span "analysis" "cost_table" (fun () ->
            cost_table ~domains:it.domains input.prog net)
      in
      add "analysis.cost_entries" (float_of_int (Network.total_domain_size net));
      fun name v -> table.(Build.var_of_array build name).(v)
    | _ -> fun _ _ -> 0.0
  in
  let result = span "csp" "search" (fun () -> search it ~cost net) in
  let st = result.Solver.stats in
  add "csp.nodes" (float_of_int st.Stats.nodes);
  add "csp.checks" (float_of_int st.Stats.checks);
  add "csp.backtracks" (float_of_int (st.Stats.backtracks + st.Stats.backjumps));
  add "csp.learned" (float_of_int st.Stats.learned);
  add "csp.bounded" (float_of_int st.Stats.bounded);
  let fails = ref [] in
  (match (result.Solver.outcome, untraced.solution) with
  | Solver.Solution a, Ok sol ->
    let layouts = Build.assignment_layouts build a in
    if not (same_layouts layouts sol.Optimizer.layouts) then
      fails := "traced search chose other layouts" :: !fails;
    let lookup name = List.assoc_opt name layouts in
    let restructured =
      span "netgen" "restructure" (fun () -> Select.restructure input.prog lookup)
    in
    if it.simulate then begin
      let program =
        if input.sim == input.prog then restructured
        else span "netgen" "restructure" (fun () -> Select.restructure input.sim lookup)
      in
      let r = span "cachesim" "simulate" (fun () -> Simulate.run program ~layouts:lookup) in
      let c = r.Simulate.counters in
      add "cachesim.accesses" (float_of_int c.Hierarchy.accesses);
      add "cachesim.l1_misses" (float_of_int c.Hierarchy.l1_misses)
    end
  | Solver.Unsatisfiable, Error _ -> ()
  | _ -> fails := "traced search disagrees with the request" :: !fails);
  let vnet =
    (span "netgen" "build" (fun () -> Build.build ?candidates:input.candidates input.prog))
      .Build.network
  in
  let check =
    span "verify" "check" (fun () -> check_certificate input vnet untraced.proof)
  in
  add "verify.steps"
    (float_of_int
       (match untraced.proof with Some p -> List.length p.Proof.steps | None -> 0));
  (match check with
  | Ok () -> ()
  | Error msg -> fails := ("traced check rejected: " ^ msg) :: !fails);
  List.rev !fails

(* ------------------------------------------------------------------ *)
(* Goldens, shapes and emitted-code metrics                             *)
(* ------------------------------------------------------------------ *)

(* The ROADMAP's paper goldens: Table-1 domain sizes and the suite's
   dependence-legal loop-order counts. *)
let golden_failures () =
  let specs = Suite.all () in
  let domain_sizes =
    List.map (fun s -> Network.total_domain_size (Spec.extract s).Build.network) specs
  in
  let legal_orders =
    List.map
      (fun s ->
        Array.fold_left
          (fun acc n -> acc + List.length (Dependence.legal_permutations n))
          0 (Program.nests s.Spec.program))
      specs
  in
  let show l = String.concat "/" (List.map string_of_int l) in
  (if domain_sizes = [ 258; 34; 422; 656; 388 ] then []
   else [ "Table-1 domain sizes " ^ show domain_sizes ])
  @
  if legal_orders = [ 240; 18; 798; 1124; 940 ] then []
  else [ "suite legal-order counts " ^ show legal_orders ]

let shape_of (o : outcome) =
  ( Array.length (Program.arrays o.input.prog),
    Array.length (Program.nests o.input.prog),
    Array.length (Network.components o.net),
    Network.total_domain_size o.net )

(* Requests that did not simulate their answer get it simulated here,
   outside any timing. *)
let emitted_cycles (o : outcome) =
  match (o.emitted, o.solution) with
  | Some (_, r), _ -> Simulate.cycles r
  | None, Ok sol -> Simulate.cycles (snd (emit o.input sol))
  | None, Error _ -> 0

let estimated_misses (o : outcome) =
  match o.solution with
  | Ok sol ->
    (Locality.analyze ~layouts:(Optimizer.lookup sol) sol.Optimizer.restructured)
      .Locality.r_misses
  | Error _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let vm_hwm_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

type options = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  setup_only : bool;
  trace_file : string;
}

let usage =
  "main.exe --workload NAME --seed N --seconds S (>0) --trace 0|1 \
   [--trace-file PATH, required with --trace 1] [--setup-only]"

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let traced = ref 0 and setup_only = ref false and trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (0 reproduces the goldens)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured run");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end run or traced run");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--trace-file", Arg.Set_string trace_file, "PATH where the traced run writes spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds <= 0.0 || (!traced = 1 && !trace_file = "") then begin
    Arg.usage [] usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    traced = !traced = 1;
    setup_only = !setup_only;
    trace_file = !trace_file;
  }

(* Output: human-readable lines, then one JSON object on the last line. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed ~first_request_at metrics =
  let metrics =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"first_request_at\":%.6f,\"metrics\":{%s}}\n%!"
    correct attempted failed first_request_at (String.concat "," metrics)

(* Peak RSS is read after this many timed passes: every request leaks
   its program through the Locality.profiler memo, so read at the end
   of a time-bounded run it would count the passes the machine managed
   (README.md). *)
let rss_passes = 4

let rotate k l =
  let n = List.length l in
  let k = if n = 0 then 0 else ((k mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let stages =
  [
    "workloads.lookup_ms"; "lang.parse_ms"; "netgen.build_ms";
    "analysis.cost_table_ms"; "csp.search_ms"; "netgen.restructure_ms";
    "cachesim.simulate_ms"; "verify.check_ms";
  ]

let () =
  let o = parse_args () in
  let w =
    match List.assoc_opt o.workload workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" o.workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let seed = o.seed in
  (* the seed also sets the order of the mix *)
  let items = rotate seed w.items in
  load_texts items;
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let attempted = ref 0 and failed = ref 0 in
  let count label fails =
    incr attempted;
    if fails <> [] then begin
      incr failed;
      List.iter (fun f -> problem (label ^ ": " ^ f)) fails
    end
  in
  (* ---- set-up: one untimed warm-up pass, shapes, oracle self-test *)
  let warm = List.map (fun it -> (it, request ~seed it)) items in
  List.iter
    (fun (it, out) ->
      count it.label (judge ~expect:it.expect out);
      let ((a, n, c, d) as shape) = shape_of out in
      Printf.printf "shape %s: arrays=%d nests=%d components=%d domain_values=%d\n"
        it.label a n c d;
      match it.shape with
      | Some pinned when pinned <> shape ->
        let a', n', c', d' = pinned in
        problem
          (Printf.sprintf "%s: shape %d/%d/%d/%d, pinned %d/%d/%d/%d" it.label
             a n c d a' n' c' d')
      | Some _ | None -> ())
    warm;
  let missed = List.concat_map self_test warm in
  List.iter (fun m -> problem ("oracle self-test: " ^ m)) missed;
  Printf.printf "oracle self-test: %s\n"
    (if missed = [] then
       "tampered certificates and wrong expected answers are counted as failures"
     else "FAILED");
  if o.traced then List.iter (fun f -> problem ("golden: " ^ f)) (golden_failures ());
  let first_request_at = Unix.gettimeofday () in
  if o.setup_only then begin
    print_result ~correct:(!problems = []) ~attempted:!attempted ~failed:!failed
      ~first_request_at [];
    exit 0
  end;
  (* ---- the measured closed loop; one pass over the mix is a request *)
  let requests = ref 0 in
  let pass_ms = ref [] and item_ms = Hashtbl.create 8 in
  let layer_samples = Hashtbl.create 32 in
  let peak_rss_mb = ref 0.0 in
  let t_start = Clock.wall_s () in
  let t_end = ref t_start in
  while !t_end -. t_start < o.seconds do
    let total = ref 0.0 in
    Hashtbl.reset acc;
    List.iter
      (fun it ->
        let p0 = Presburger.stats () in
        let t0 = Clock.wall_s () in
        let out = request ~seed it in
        let ms = (Clock.wall_s () -. t0) *. 1e3 in
        let p1 = Presburger.stats () in
        incr requests;
        total := !total +. ms;
        Hashtbl.replace item_ms it.label
          (ms :: Option.value ~default:[] (Hashtbl.find_opt item_ms it.label));
        let fails = judge ~expect:it.expect out in
        let fails =
          match (out.emitted, (List.assq it warm).emitted) with
          | Some (_, r), Some (_, r0) when Simulate.cycles r <> Simulate.cycles r0 ->
            "emitted cycles differ from the warm-up's" :: fails
          | _ -> fails
        in
        let fails =
          if not o.traced then fails
          else begin
            add "ir.presburger_checks"
              (float_of_int (p1.Presburger.checks - p0.Presburger.checks));
            add "ir.presburger_splits"
              (float_of_int (p1.Presburger.splits - p0.Presburger.splits));
            incr request_id;
            fails @ traced_request ~seed it out
          end
        in
        count it.label fails)
      items;
    pass_ms := !total :: !pass_ms;
    if List.length !pass_ms = rss_passes then peak_rss_mb := vm_hwm_mb ();
    if o.traced then begin
      (* The accounting is per pass: the untraced requests and their
         replays ran interleaved, so they saw the same machine. *)
      let sum k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
      let stage_sum = List.fold_left (fun a k -> a +. sum k) 0.0 stages in
      (* the deps drill-down is extra work, not tracing overhead *)
      let replay = sum "core.request_ms" -. sum "ir.deps_ms" in
      add "core.untraced_request_ms" !total;
      add "core.stage_sum_ms" stage_sum;
      add "core.unattributed_ms" (!total -. stage_sum);
      add "core.trace_overhead_ms" (replay -. !total);
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace layer_samples k
            (v :: Option.value ~default:[] (Hashtbl.find_opt layer_samples k)))
        acc
    end;
    t_end := Clock.wall_s ()
  done;
  if List.length !pass_ms < rss_passes then peak_rss_mb := vm_hwm_mb ();
  let elapsed = !t_end -. t_start in
  let passes = List.length !pass_ms in
  (* ---- seeded probes: certificate acceptance only *)
  List.iter
    (fun it ->
      let out = request ~seed it in
      let fails = judge ~expect:no_expectation out in
      Printf.printf "probe %s seed %d: %s, %s\n" it.label seed
        (match out.solution with Ok _ -> "solved" | Error _ -> "unsatisfiable")
        (if fails = [] then "certificate accepted" else "FAILED");
      count it.label fails)
    w.probes;
  (* ---- deterministic metrics of the emitted code, one pass *)
  let cycles = List.fold_left (fun acc (_, out) -> acc + emitted_cycles out) 0 warm in
  let est = List.fold_left (fun acc (_, out) -> acc +. estimated_misses out) 0.0 warm in
  Printf.printf "workload %s seed %d: %d passes of %d requests in %.2fs\n"
    o.workload seed passes (List.length items) elapsed;
  List.iter
    (fun it ->
      let ms = Hashtbl.find item_ms it.label in
      Printf.printf "  request %s: p50 %.3f ms (n=%d)\n" it.label (median ms)
        (List.length ms))
    items;
  Printf.printf "request_ms: min %.3f p25 %.3f p50 %.3f max %.3f (n=%d)\n"
    (quantile 0.0 !pass_ms) (quantile 0.25 !pass_ms) (quantile 0.5 !pass_ms)
    (quantile 1.0 !pass_ms) passes;
  Printf.printf "peak RSS: %.1f MB after %d passes, %.1f MB at the end\n"
    !peak_rss_mb (min passes rss_passes) (vm_hwm_mb ());
  if passes >= 100 then
    Printf.printf "request_ms.p90 %.3f ms (n=%d)\n" (quantile 0.9 !pass_ms) passes
  else
    Printf.printf "request_ms.p90 not reported: %d samples, fewer than 100\n" passes;
  Printf.printf "error_rate %g (%d of %d requests failed)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  let request_p50 = median !pass_ms in
  let metrics =
    if not o.traced then
      [
        ("request_ms.p50", "ms", request_p50);
        ("throughput_rps", "1/s", float_of_int !requests /. elapsed);
        ("peak_rss_mb", "MB", !peak_rss_mb);
        ("emitted_sim_cycles", "cycles", float_of_int cycles);
        ("emitted_est_misses", "misses", est);
      ]
    else begin
      let layer name =
        match Hashtbl.find_opt layer_samples name with
        | Some xs -> median xs
        | None -> 0.0
      in
      let ratio num den = if layer den = 0.0 then 0.0 else layer num /. layer den in
      (match write_trace o.trace_file with
      | () -> (
        match Trace_summary.load o.trace_file with
        | Ok s when s.Trace_summary.balanced -> ()
        | Ok _ -> problem "trace file is unbalanced"
        | Error e -> problem ("trace file unreadable: " ^ e))
      | exception Sys_error e -> problem ("trace file not written: " ^ e));
      List.map (fun s -> (s, "ms", layer s)) stages
      @ List.map
          (fun s -> (s, "count", layer s))
          [
            "ir.presburger_checks"; "ir.presburger_splits";
            "netgen.domain_values"; "netgen.constraints"; "netgen.components";
            "analysis.cost_entries"; "csp.nodes"; "csp.checks";
            "csp.backtracks"; "csp.learned"; "csp.bounded";
            "cachesim.accesses"; "verify.steps";
          ]
      @ [
          ("ir.deps_ms", "ms", layer "ir.deps_ms");
          ("csp.bound_ratio", "ratio", ratio "csp.bounded" "csp.nodes");
          ("cachesim.l1_miss_ratio", "ratio", ratio "cachesim.l1_misses" "cachesim.accesses");
        ]
      @ List.map
          (fun s -> (s, "ms", layer s))
          [
            "core.untraced_request_ms"; "core.stage_sum_ms";
            "core.unattributed_ms"; "core.trace_overhead_ms";
          ]
    end
  in
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev !problems);
  print_result ~correct:(!problems = []) ~attempted:!attempted ~failed:!failed
    ~first_request_at metrics
