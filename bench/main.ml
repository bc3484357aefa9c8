(* Benchmark harness.

   Two parts:

   1. The reproduction: regenerate every table and figure of the paper
      (Table 1, Table 2, Figure 4, Table 3) and print them with the
      published numbers alongside.  These are single-shot runs - exactly
      what the experiments measure.

   2. Bechamel micro-benchmarks: one Test.make group per table/figure,
      timing the computational kernel each experiment stresses (network
      extraction for Table 1, the solver schemes for Table 2, the
      single-improvement schemes for Figure 4, trace-driven simulation
      for Table 3) on inputs small enough to sample repeatedly. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Build = Mlo_netgen.Build
module Propagation = Mlo_heuristic.Propagation
module Simulate = Mlo_cachesim.Simulate
module Tables = Mlo_experiments.Tables
module Prune = Mlo_netgen.Prune
module Locality = Mlo_analysis.Locality
module Depreport = Mlo_analysis.Depreport
module Optimizer = Mlo_core.Optimizer
module Proof = Mlo_verify.Proof
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: the tables                                                   *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  Format.printf "==================================================@.";
  Format.printf "Reproduction of Chen/Kandemir/Karakoy, DATE 2005@.";
  Format.printf "==================================================@.@.";
  Format.printf "%a@.@." Tables.print_table1 (Tables.run_table1 ());
  Format.printf "%a@.@." Tables.print_table2 (Tables.run_table2 ());
  Format.printf "%a@.@." Tables.print_fig4 (Tables.run_fig4 ());
  Format.printf "%a@.@." Tables.print_table3 (Tables.run_table3 ());
  Format.printf "%a@.@." Tables.print_ablation (Tables.run_ablation ())

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks                                    *)
(* ------------------------------------------------------------------ *)

let mxm = lazy (Suite.by_name "mxm")
let med = lazy (Suite.by_name "med-im04")

(* A fresh physical copy of a program.  What the pipeline stages per
   program (the profiler memo, each nest's legal loop orders) is keyed by
   program identity, so a kernel that times a cold pass builds its input
   anew on every run instead of answering from the previous run's
   memo. *)
let fresh prog =
  Mlo_ir.Program.make ~name:(Mlo_ir.Program.name prog)
    (Array.to_list (Mlo_ir.Program.arrays prog))
    (Array.to_list (Mlo_ir.Program.nests prog))

let fresh_spec spec = { spec with Spec.program = fresh spec.Spec.program }

let table1_tests =
  List.map
    (fun spec ->
      Test.make
        ~name:(Printf.sprintf "table1/extract:%s" spec.Spec.name)
        (Staged.stage (fun () -> ignore (Spec.extract (fresh_spec spec)))))
    [ Lazy.force mxm; Lazy.force med ]

let table2_tests =
  List.concat_map
    (fun spec ->
      let build = Spec.extract spec in
      let net = build.Build.network in
      [
        Test.make
          ~name:(Printf.sprintf "table2/enhanced:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Solver.solve ~config:(Schemes.enhanced ()) net)));
        Test.make
          ~name:(Printf.sprintf "table2/heuristic:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Propagation.optimize (fresh spec.Spec.program))));
      ])
    [ Lazy.force mxm; Lazy.force med ]

let fig4_tests =
  let build = Spec.extract (Lazy.force mxm) in
  let net = build.Build.network in
  List.map
    (fun a ->
      Test.make
        ~name:(Printf.sprintf "fig4/%s" a.Schemes.label)
        (Staged.stage (fun () ->
             ignore (Solver.solve ~config:a.Schemes.config net))))
    (Schemes.figure4_schemes ~max_checks:50_000_000 ())

(* matmul32: the Table-3 sweep program, shared with the locality
   kernels below so the static estimate and the simulation time the
   same input. *)
let matmul32 =
  lazy
    (let n = 32 in
     let mm, req =
       Mlo_workloads.Kernels.matmul ~name:"mm" ~n ~c:"C" ~a:"A" ~b:"B"
     in
     Mlo_ir.Program.make ~name:"bench-mm" (Mlo_workloads.Kernels.declare req)
       [ mm ])

let colB = function
  | "B" -> Some (Mlo_layout.Layout.col_major 2)
  | _ -> None

(* The Table-3 sweep shape: one program, several layout assignments
   (here 8 = 4 code versions x 2, big enough to keep 4 domains busy). *)
let matmul32_sweep =
  List.concat (List.init 4 (fun _ -> [ (fun _ -> None); colB ]))

let table3_tests =
  let prog = Lazy.force matmul32 in
  let sweep = matmul32_sweep in
  [
    Test.make ~name:"table3/simulate:matmul32-row"
      (Staged.stage (fun () ->
           ignore (Simulate.run prog ~layouts:(fun _ -> None))));
    Test.make ~name:"table3/simulate:matmul32-colB"
      (Staged.stage (fun () -> ignore (Simulate.run prog ~layouts:colB)));
    Test.make ~name:"table3/reference:matmul32-row"
      (Staged.stage (fun () ->
           ignore (Simulate.run_reference prog ~layouts:(fun _ -> None))));
    Test.make ~name:"table3/compile:matmul32"
      (Staged.stage (fun () ->
           ignore (Mlo_cachesim.Compiled_trace.compile prog ~layouts:colB)));
    Test.make ~name:"table3/run_many:matmul32-x8-1dom"
      (Staged.stage (fun () ->
           ignore (Simulate.run_many ~domains:1 prog ~layouts_list:sweep)));
  ]
  (* Multi-domain scaling is only meaningful with real cores behind the
     domains; on a single-core box Domain.spawn is pure overhead, so the
     kernel would record noise.  recommended_domain_count is the same
     signal run_many's default uses. *)
  @ (if Domain.recommended_domain_count () >= 4 then
       [
         Test.make ~name:"table3/run_many:matmul32-x8-4dom"
           (Staged.stage (fun () ->
                ignore (Simulate.run_many ~domains:4 prog ~layouts_list:sweep)));
       ]
     else [])

(* Domain build with and without dominance pruning.  The extract/prune
   pair on the same spec isolates the pruning pass itself; Prune.apply
   re-runs the locality profiler per (array, candidate layout), so its
   cost scales with the domain sizes Table 1 reports. *)
let prune_tests =
  List.concat_map
    (fun spec ->
      [
        Test.make
          ~name:(Printf.sprintf "prune/extract:%s" spec.Spec.name)
          (Staged.stage (fun () -> ignore (Spec.extract (fresh_spec spec))));
        Test.make
          ~name:(Printf.sprintf "prune/extract+prune:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Prune.apply (Spec.extract (fresh_spec spec)))));
      ])
    [ Lazy.force mxm; Lazy.force med ]

(* The workload-scaling axis: the synthetic scale family at 10/100/1000
   arrays (Suite.scale — component-rich networks, hundreds of nests).
   Per size: network extraction, the component solve alone (serial and,
   where the machine has real cores behind the domains, on 4 of them),
   and the end-to-end extract+solve pipeline.  The request-level view of
   the same path is perfbench's scale-1000-bnb workload. *)
let scale_sizes = [ 10; 100; 1000 ]

(* Same gate as table3/run_many above: multi-domain kernels record pure
   spawn overhead on a box without cores to back the domains. *)
let scale_par_domains =
  if Domain.recommended_domain_count () >= 4 then Some 4 else None

let scale_builds =
  lazy
    (List.map
       (fun n ->
         let spec = Suite.scale n in
         (n, spec, Spec.extract spec))
       scale_sizes)

let scale_tests =
  lazy
    (List.concat_map
       (fun (n, spec, build) ->
         let net = build.Build.network in
         [
           Test.make
             ~name:(Printf.sprintf "scale/extract:scale-%d" n)
             (Staged.stage (fun () -> ignore (Spec.extract (fresh_spec spec))));
           Test.make
             ~name:(Printf.sprintf "scale/solve-ser:scale-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve_components ~config:(Schemes.enhanced ()) net)));
           Test.make
             ~name:(Printf.sprintf "scale/e2e:scale-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve_components ~config:(Schemes.enhanced ())
                       (Spec.extract (fresh_spec spec)).Build.network)));
         ]
         @
         match scale_par_domains with
         | None -> []
         | Some domains ->
           [
             Test.make
               ~name:(Printf.sprintf "scale/solve-par%d:scale-%d" domains n)
               (Staged.stage (fun () ->
                    ignore
                      (Solver.solve_components ~config:(Schemes.enhanced ())
                         ~domains net)));
           ])
       (Lazy.force scale_builds))

(* The bnb cost table from a cold profiler memo: every run prices a
   [fresh] copy of the program, so each sample stages the program and
   answers every (array, candidate layout) query.  Shape has the paper suite's
   largest table; perfbench's scale-1000-bnb request spends most of its
   time in scale-1000's (2760 queries). *)
let cost_table_test name spec build =
  let prog = spec.Spec.program in
  let net = build.Build.network in
  Test.make ~name:("locality/cost-table:" ^ name)
    (Staged.stage (fun () ->
         ignore
           (Optimizer.cost_table ~objective:Optimizer.Estimated_misses
              (fresh prog) net)))

let cost_table_tests =
  lazy
    (let shape = Suite.by_name "shape" in
     let _, scale, scale_build =
       List.find (fun (n, _, _) -> n = 1000) (Lazy.force scale_builds)
     in
     [
       cost_table_test "shape" shape (Spec.extract shape);
       cost_table_test "scale-1000" scale scale_build;
     ])

(* The conflict-driven axis: the hard family (three-deep nests on the
   array ring near the phase transition, Suite.hard) at sizes where the
   paper's enhanced backjumper starts to thrash on rediscovered
   conflicts.  Per size: the enhanced solve, the nogood-learning solve
   (Cdl) and the racing portfolio on the same pre-built network.  The
   enhanced-vs-cdl p50 ratio is the learning speedup; BENCH_solver.json
   (--json) records all twelve kernels. *)
let hard_sizes = [ 20; 80; 150; 200 ]

let hard_builds =
  lazy
    (List.map
       (fun n -> (n, Spec.extract (Suite.hard n)))
       hard_sizes)

let hard_tests =
  lazy
    (List.concat_map
       (fun (n, build) ->
         let net = build.Build.network in
         let compiled = Mlo_csp.Network.compile net in
         [
           Test.make
             ~name:(Printf.sprintf "hard/solve-enh:hard-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Solver.solve_components ~config:(Schemes.enhanced ()) net)));
           Test.make
             ~name:(Printf.sprintf "hard/solve-cdl:hard-%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Mlo_csp.Cdl.solve_components
                       ~config:Mlo_csp.Cdl.default_config net)));
           Test.make
             ~name:(Printf.sprintf "hard/solve-portfolio:hard-%d" n)
             (Staged.stage (fun () ->
                  ignore (Mlo_csp.Portfolio.race ~domains:2 compiled)));
         ])
       (Lazy.force hard_builds))

(* Static miss estimate vs trace-driven simulation on the same
   matmul32 sweep: locality/estimate-sweep is the closed-form analyzer
   over the 8 layout assignments table3/run_many walks address by
   address.  The ratio of the two is the speedup the cost model buys. *)
let locality_tests =
  let prog = Lazy.force matmul32 in
  [
    Test.make ~name:"locality/analyze:matmul32"
      (Staged.stage (fun () ->
           ignore (Locality.analyze prog ~layouts:colB)));
    Test.make ~name:"locality/estimate-sweep:matmul32-x8"
      (Staged.stage (fun () ->
           List.iter
             (fun layouts -> ignore (Locality.analyze prog ~layouts))
             matmul32_sweep));
  ]

(* The exact dependence axis: the full Omega-test analysis (per-pair
   direction-vector enumeration plus the legal-permutation filter) over
   a paper benchmark and a conflict-heavy one.  This is the static
   analysis every deps/lint/optimize run pays up front; the kernels pin
   its cost next to the solver stages it feeds. *)
let deps_tests =
  List.map
    (fun spec ->
      Test.make
        ~name:(Printf.sprintf "deps/analyze:%s" spec.Spec.name)
        (Staged.stage (fun () ->
             ignore (Depreport.run (fresh spec.Spec.program)))))
    [ Lazy.force mxm; Lazy.force med ]

(* The optimizing axis: branch and bound over the static cost model on
   the paper networks, next to the first-solution learner on the same
   pre-built network — the pair prices the optimality proof.  The cost
   table is built outside the timed thunk, so the kernel times the
   search itself. *)
let bnb_tests =
  List.concat_map
    (fun spec ->
      let build = Spec.extract spec in
      let net = build.Build.network in
      let costs =
        Optimizer.cost_table ~objective:Optimizer.Estimated_misses
          spec.Spec.program net
      in
      let cost name v = costs.(Build.var_of_array build name).(v) in
      [
        Test.make
          ~name:(Printf.sprintf "bnb/solve-bnb:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore (Mlo_csp.Bnb.branch_and_bound ~cost net)));
        Test.make
          ~name:(Printf.sprintf "bnb/solve-cdl:%s" spec.Spec.name)
          (Staged.stage (fun () ->
               ignore
                 (Mlo_csp.Cdl.solve_components
                    ~config:Mlo_csp.Cdl.default_config net)));
      ])
    [ Lazy.force mxm; Lazy.force med ]

(* The certifying axis: the same hard-80 cdl solve bare and with proof
   event recording (the per-search work `solve --proof` adds — the
   bare-vs-events p50 ratio is the under-10% logging-overhead claim of
   DESIGN.md Section 16, recorded as data in BENCH_solver.json), the
   one-time certificate assembly (header digest plus step list, a fixed
   O(network) cost independent of search length), and the independent
   checker replaying the finished certificate. *)
let record_cdl net =
  let r = Proof.recorder () in
  ( r,
    Mlo_csp.Cdl.solve_components ~config:Mlo_csp.Cdl.default_config
      ~on_event:(Proof.on_event r) net )

let proof_tests =
  lazy
    (let _, build =
       List.find (fun (n, _) -> n = 80) (Lazy.force hard_builds)
     in
     let net = build.Build.network in
     let r, result = record_cdl net in
     let assemble () =
       Proof.certificate r ~workload:"hard-80" ~scheme:"cdl" net result
     in
     let proof = assemble () in
     [
       Test.make ~name:"proof/solve-cdl:hard-80"
         (Staged.stage (fun () ->
              ignore
                (Mlo_csp.Cdl.solve_components
                   ~config:Mlo_csp.Cdl.default_config net)));
       Test.make ~name:"proof/solve-cdl+events:hard-80"
         (Staged.stage (fun () -> ignore (record_cdl net)));
       Test.make ~name:"proof/assemble:hard-80"
         (Staged.stage (fun () -> ignore (assemble ())));
       Test.make ~name:"proof/check:hard-80"
         (Staged.stage (fun () ->
              match Mlo_verify.Checker.check net proof with
              | Ok () -> ()
              | Error msg -> failwith msg));
     ])

(* Per-kernel robust statistics over the raw per-sample ns/run values.
   Percentiles use linear interpolation between order statistics; MAD is
   the median absolute deviation from the median (unscaled), a spread
   estimate that one cache-cold outlier can't distort the way a standard
   deviation can. *)
type stats = { p50 : float; p90 : float; p99 : float; mad : float; samples : int }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let stats_of samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let p50 = percentile a 0.5 in
  let dev = Array.map (fun x -> Float.abs (x -. p50)) a in
  Array.sort compare dev;
  {
    p50;
    p90 = percentile a 0.9;
    p99 = percentile a 0.99;
    mad = percentile dev 0.5;
    samples = Array.length a;
  }

(* Runs every kernel whose name starts with [filter] (default: all) and
   returns (name, stats, OLS ns/run) rows, in test order.  The stats
   come straight from the raw per-sample measurements; OLS is
   bechamel's usual run-predictor fit. *)
let benchmark ?(filter = "") ~quota () =
  let tests =
    table1_tests @ table2_tests @ fig4_tests @ table3_tests @ prune_tests
    @ locality_tests @ Lazy.force cost_table_tests @ deps_tests @ bnb_tests
    @ Lazy.force scale_tests @ Lazy.force hard_tests @ Lazy.force proof_tests
  in
  let tests =
    if filter = "" then tests
    else List.filter (fun t -> String.starts_with ~prefix:filter (Test.name t)) tests
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let label = Measure.label Instance.monotonic_clock in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name (b : Benchmark.t) acc ->
          let st =
            stats_of
              (Array.map
                 (fun m ->
                   Measurement_raw.get ~label m /. Measurement_raw.run m)
                 b.Benchmark.lr)
          in
          let est =
            match Hashtbl.find_opt results name with
            | Some r -> (
              match Analyze.OLS.estimates r with
              | Some [ e ] -> Some e
              | Some _ | None -> None)
            | None -> None
          in
          (name, st, est) :: acc)
        raw []
      |> List.sort compare)
    tests

let print_benchmark rows =
  Format.printf "Bechamel micro-benchmarks (monotonic clock, ns/run):@.";
  Format.printf "  %-34s %12s %12s %12s %9s %6s %12s@." "kernel" "p50" "p90"
    "p99" "mad" "n" "ols";
  List.iter
    (fun (name, st, est) ->
      Format.printf "  %-34s %12.1f %12.1f %12.1f %9.1f %6d" name st.p50
        st.p90 st.p99 st.mad st.samples;
      (match est with
      | Some e -> Format.printf " %12.1f" e
      | None -> Format.printf " %12s" "-");
      Format.printf "@.")
    rows;
  Format.printf "@."

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Schema "memlayout-bench/2": per-kernel percentile objects.  /1 was a
   flat name->median map; any consumer keying on "kernels".<name> being a
   number must switch on the "schema" field. *)
let write_json file rows =
  let oc = open_out file in
  output_string oc
    "{\n\
    \  \"schema\": \"memlayout-bench/2\",\n\
    \  \"clock\": \"monotonic\",\n\
    \  \"unit\": \"ns/run\",\n\
    \  \"kernels\": {\n";
  List.iteri
    (fun i (name, st, _) ->
      Printf.fprintf oc
        "    \"%s\": { \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"mad\": \
         %.1f, \"samples\": %d }%s\n"
        (json_escape name) st.p50 st.p90 st.p99 st.mad st.samples
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Format.printf "wrote %d kernel stats to %s@." (List.length rows) file

let usage () =
  prerr_endline
    "usage: bench [--tables | --json [FILE] | --smoke [FILTER]]\n\
     \  (default)        print the paper's tables then run the micro-benchmarks\n\
     \  --tables         print the paper's tables only\n\
     \  --json [FILE]    run the micro-benchmarks and dump per-kernel medians\n\
     \                   as JSON (default FILE: BENCH_solver.json)\n\
     \  --smoke [FILTER] short benchmark run, no tables (CI); FILTER, if\n\
     \                   given, runs only kernels whose name starts with it\n\
     \                   (e.g. table3/ or scale/)";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    print_tables ();
    print_benchmark (benchmark ~quota:0.5 ())
  | [ _; "--tables" ] -> print_tables ()
  | _ :: "--json" :: rest ->
    let file =
      match rest with
      | [] -> "BENCH_solver.json"
      | [ f ] -> f
      | _ -> usage ()
    in
    let rows = benchmark ~quota:0.5 () in
    print_benchmark rows;
    write_json file rows
  | [ _; "--smoke" ] -> print_benchmark (benchmark ~quota:0.05 ())
  | [ _; "--smoke"; filter ] ->
    print_benchmark (benchmark ~filter ~quota:0.05 ())
  | _ -> usage ()
