(* Static locality analyzer vs the exact simulator, and the dominance
   pruning built on top of it. *)

module Locality = Mlo_analysis.Locality
module Costcheck = Mlo_analysis.Costcheck
module Diagnostic = Mlo_analysis.Diagnostic
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy
module Cache = Mlo_cachesim.Cache
module Address_map = Mlo_cachesim.Address_map
module Suite = Mlo_workloads.Suite
module Spec = Mlo_workloads.Spec
module Random_program = Mlo_workloads.Random_program
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module B = Mlo_ir.Builder
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Build = Mlo_netgen.Build
module Prune = Mlo_netgen.Prune
module Select = Mlo_netgen.Select

let none _ = None

(* ------------------------------------------------------------------ *)
(* Accuracy on the benchmark suite                                      *)
(* ------------------------------------------------------------------ *)

(* Acceptance bound: the closed-form estimate must land within 15% of
   the simulated L1 misses on every suite benchmark at sim sizes. *)
let test_suite_accuracy () =
  List.iter
    (fun spec ->
      let sim_prog = spec.Spec.sim_program in
      let r = Locality.analyze sim_prog ~layouts:none in
      let sim = Simulate.run sim_prog ~layouts:none in
      let actual = float_of_int sim.Simulate.counters.Hierarchy.l1_misses in
      let err = Float.abs (r.Locality.r_misses -. actual) /. actual in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 15%% (est %.0f, sim %.0f, err %.3f)"
           spec.Spec.name r.Locality.r_misses actual err)
        true (err <= 0.15))
    (Suite.all ())

(* ------------------------------------------------------------------ *)
(* Exactness on a fully-associative no-capacity cache                   *)
(* ------------------------------------------------------------------ *)

(* Single-nest random programs with small affine accesses.  On a
   fully-associative cache whose capacity covers the footprint every
   reuse is realized, so the estimate degenerates to the distinct-line
   count — which must match the simulator's cold misses to the line
   whenever the analyzer claims exactness. *)
let gen_exact_case seed =
  let st = Random.State.make [| 0x10ca11; seed |] in
  let depth = 2 + Random.State.int st 2 in
  let trips = Array.init depth (fun _ -> 2 + Random.State.int st 5) in
  let var_names = List.init depth (fun l -> Printf.sprintf "i%d" l) in
  let x = B.ctx var_names in
  let num_arrays = 1 + Random.State.int st 3 in
  let arrays = ref [] and accesses = ref [] in
  for a = 0 to num_arrays - 1 do
    let name = Printf.sprintf "A%d" a in
    let rank = 2 in
    let extents = Array.make rank 1 in
    (* Separable accesses — at most one loop variable per dimension, the
       shape the closed forms count exactly.  One coefficient matrix per
       array; later accesses usually reuse it with shifted offsets (same
       delta vector -> one exactly-counted group), occasionally diverge
       (overlapping groups -> the analyzer must drop its exactness
       claim, also exercised). *)
    let pick_coeffs () =
      Array.init rank (fun _ ->
          let row = Array.make depth 0 in
          let v = Random.State.int st depth in
          row.(v) <- Random.State.int st 3;
          row)
    in
    let base_coeffs = pick_coeffs () in
    let n_acc = 1 + Random.State.int st 2 in
    for acc = 0 to n_acc - 1 do
      let fresh = acc > 0 && Random.State.int st 10 = 0 in
      let dims =
        List.init rank (fun d ->
            let coeffs = if fresh then (pick_coeffs ()).(d) else base_coeffs.(d) in
            let offset = Random.State.int st 3 in
            let expr =
              Array.to_list coeffs
              |> List.mapi (fun l c -> B.(c *: var x (List.nth var_names l)))
              |> List.fold_left B.( +: ) (B.const x offset)
            in
            let max_val =
              offset
              + (Array.to_list coeffs
                |> List.mapi (fun l c -> c * (trips.(l) - 1))
                |> List.fold_left ( + ) 0)
            in
            extents.(d) <- max extents.(d) (max_val + 1);
            expr)
      in
      accesses := B.read name dims :: !accesses
    done;
    arrays := Array_info.make name (Array.to_list extents) :: !arrays
  done;
  let nest = B.nest "n0" x (Array.to_list trips) (List.rev !accesses) in
  let prog =
    Program.make ~name:(Printf.sprintf "exact%d" seed) (List.rev !arrays)
      [ nest ]
  in
  let line = [| 16; 32; 64 |].(Random.State.int st 3) in
  let footprint =
    Address_map.footprint_bytes (Address_map.build prog ~layouts:none)
  in
  let size = ref (max line 64) in
  while !size < footprint do
    size := 2 * !size
  done;
  let geo = Cache.geometry ~size_bytes:!size ~assoc:(!size / line) ~line_bytes:line in
  let config =
    {
      Hierarchy.l1 = geo;
      l2 =
        Cache.geometry ~size_bytes:(2 * !size)
          ~assoc:(2 * !size / line)
          ~line_bytes:line;
      l1_latency = 1;
      l2_latency = 6;
      memory_latency = 70;
      compute_cycles_per_access = 1;
    }
  in
  (prog, geo, config)

let check_exact_case seed =
  let prog, geo, config = gen_exact_case seed in
  let r = Locality.analyze ~geometry:geo prog ~layouts:none in
  let sim =
    float_of_int
      (Simulate.run ~config prog ~layouts:none).Simulate.counters
        .Hierarchy.l1_misses
  in
  let exact_holds = (not r.Locality.r_exact) || r.Locality.r_misses = sim in
  (r.Locality.r_exact, exact_holds)

let prop_fully_assoc_exact =
  QCheck.Test.make
    ~name:"exact-flagged estimates equal cold misses on a fully-assoc cache"
    ~count:150 QCheck.small_nat (fun seed -> snd (check_exact_case seed))

(* The exactness qualifier must not be vacuous: the family is built so
   the analyzer commits to an exact count on the large majority of it. *)
let test_exactness_frequency () =
  let exact = ref 0 and total = 200 in
  for seed = 0 to total - 1 do
    let was_exact, holds = check_exact_case seed in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d exact estimate equals simulation" seed)
      true holds;
    if was_exact then incr exact
  done;
  Alcotest.(check bool)
    (Printf.sprintf "exact on most of the family (%d/%d)" !exact total)
    true
    (!exact * 5 >= total * 3)

(* ------------------------------------------------------------------ *)
(* Costcheck                                                            *)
(* ------------------------------------------------------------------ *)

let suite_targets () =
  List.map
    (fun spec ->
      {
        Costcheck.ct_name = spec.Spec.name;
        ct_program = spec.Spec.sim_program;
        ct_layouts = none;
      })
    (Suite.all ())

let test_costcheck_suite_clean () =
  let r = Costcheck.run (suite_targets ()) in
  Alcotest.(check int) "five entries" 5 (List.length r.Costcheck.cr_entries);
  Alcotest.(check int)
    "no divergence diagnostics at the default threshold" 0
    (List.length r.Costcheck.cr_diagnostics);
  Alcotest.(check int) "exit code 0" 0
    (Diagnostic.exit_code r.Costcheck.cr_diagnostics)

let test_costcheck_divergence_contract () =
  (* An impossible threshold turns every entry into an error-severity
     estimate-divergence diagnostic and trips the exit-1 contract. *)
  let r = Costcheck.run ~threshold:(-1.) (suite_targets ()) in
  Alcotest.(check int) "every entry diverges" 5
    (List.length r.Costcheck.cr_diagnostics);
  List.iter
    (fun d ->
      Alcotest.(check string) "code" "estimate-divergence" d.Diagnostic.code;
      Alcotest.(check bool) "severity" true
        (d.Diagnostic.severity = Diagnostic.Error))
    r.Costcheck.cr_diagnostics;
  Alcotest.(check int) "exit code 1" 1
    (Diagnostic.exit_code r.Costcheck.cr_diagnostics)

(* ------------------------------------------------------------------ *)
(* Dominance pruning                                                    *)
(* ------------------------------------------------------------------ *)

let solve_enhanced net =
  let config = Schemes.enhanced ~seed:1 () in
  let r = Solver.solve_components ~config net in
  match r.Solver.outcome with
  | Solver.Solution a -> Some a
  | _ -> None

(* Map a layout choice per array back to value indices of a network. *)
let assignment_of_layouts net layouts =
  Array.init (Network.num_vars net) (fun i ->
      let want = List.assoc (Network.name net i) layouts in
      let dom = Network.domain net i in
      let idx = ref (-1) in
      Array.iteri
        (fun v l -> if !idx < 0 && Layout.equal l want then idx := v)
        dom;
      !idx)

let simulated_cycles spec layouts =
  let lookup n = List.assoc_opt n layouts in
  let restructured = Select.restructure spec.Spec.sim_program lookup in
  (Simulate.run restructured ~layouts:lookup).Simulate.counters
    .Hierarchy.cycles

(* The acceptance triple on the five benchmarks: pruning removes values,
   never changes satisfiability, the pruned network's solution is a
   solution of the original network, and the solution the solver then
   finds is never costlier than the unpruned one. *)
let test_prune_benchmarks () =
  let total_pruned = ref 0 in
  List.iter
    (fun spec ->
      let b = Spec.extract spec in
      let b', info = Prune.apply b in
      total_pruned := !total_pruned + Prune.total info;
      Alcotest.(check int)
        (spec.Spec.name ^ " info total consistent")
        (Prune.total info)
        (info.Prune.before - info.Prune.after);
      match (solve_enhanced b.Build.network, solve_enhanced b'.Build.network) with
      | Some _, Some a' ->
        let layouts' = Build.assignment_layouts b' a' in
        Alcotest.(check bool)
          (spec.Spec.name ^ " pruned solution solves the original network")
          true
          (Network.verify b.Build.network
             (assignment_of_layouts b.Build.network layouts'));
        let layouts = Build.assignment_layouts b (Option.get (solve_enhanced b.Build.network)) in
        let c = simulated_cycles spec layouts
        and c' = simulated_cycles spec layouts' in
        Alcotest.(check bool)
          (Printf.sprintf "%s pruned choice is never costlier (%d vs %d)"
             spec.Spec.name c' c)
          true (c' <= c)
      | None, None -> ()
      | _ ->
        Alcotest.fail (spec.Spec.name ^ ": pruning changed satisfiability"))
    (Suite.all ());
  (* the headline acceptance: at least one dominated layout disappears *)
  Alcotest.(check bool)
    (Printf.sprintf "pruning removes values somewhere (total %d)" !total_pruned)
    true (!total_pruned >= 1)

let test_prune_mxm_drops_padding () =
  let b = Spec.extract (Suite.by_name "mxm") in
  let _, info = Prune.apply b in
  Alcotest.(check bool)
    (Printf.sprintf "MxM loses >= 1 dominated value (lost %d)"
       (Prune.total info))
    true
    (Prune.total info >= 1)

let prop_prune_preserves_satisfiability =
  QCheck.Test.make
    ~name:"pruning preserves satisfiability on generated programs" ~count:15
    QCheck.small_nat (fun seed ->
      let params =
        {
          Random_program.default with
          Random_program.seed;
          num_arrays = 4;
          num_nests = 4;
          extent = 12;
          sim_extent = 8;
        }
      in
      let prog = Random_program.generate params in
      let b = Build.build prog in
      let b', _ = Prune.apply b in
      (* restrict_domains refuses to empty a domain, so reaching the
         solver at all already certifies non-empty domains *)
      let sat n = solve_enhanced n <> None in
      sat b.Build.network = sat b'.Build.network)

(* ------------------------------------------------------------------ *)
(* Profiler memoization                                                 *)
(* ------------------------------------------------------------------ *)

(* The profiler caches per-(array, layout) profiles under the program's
   physical identity.  The memo must be invisible: repeated queries
   (same or fresh profiler instance over the same program object) agree,
   a physically distinct but equal program yields the same numbers (the
   cold path is deterministic), and the returned arrays are fresh — a
   caller scribbling on one must not poison later answers. *)
let test_profiler_memo_invisible () =
  let spec = Suite.by_name "mxm" in
  let prog = spec.Spec.program in
  let p1 = Locality.profiler prog in
  let col = Layout.col_major 2 in
  let a = p1 ~array_name:"A" ~layout:col in
  let a_copy = Array.copy a in
  (* scribble on the returned array; the cache must not see it *)
  Array.fill a 0 (Array.length a) (-1.0);
  let b = p1 ~array_name:"A" ~layout:col in
  Alcotest.(check bool) "cached query unaffected by caller mutation" true
    (b = a_copy);
  let p2 = Locality.profiler prog in
  Alcotest.(check bool) "fresh profiler instance, same program: same answer"
    true
    (p2 ~array_name:"A" ~layout:col = a_copy);
  (* a structurally equal but physically distinct program recomputes
     from cold and must land on the same numbers *)
  let prog' = (Suite.by_name "mxm").Spec.program in
  Alcotest.(check bool) "physically distinct equal program: same answer" true
    (Locality.profiler prog' ~array_name:"A" ~layout:col = a_copy);
  (* untouched/unknown arrays profile to all zeros *)
  let z = p1 ~array_name:"no-such-array" ~layout:col in
  Alcotest.(check bool) "unknown array is all zeros" true
    (Array.for_all (fun x -> x = 0.0) z)

(* The memo must not keep its programs alive: once the caller drops a
   profiled program (and every profiler over it), a full major GC
   collects it, and its cache entry with it. *)
let test_profiler_entry_dies_with_program () =
  let w = Weak.create 1 in
  let[@inline never] profile_fresh () =
    let x = B.ctx [ "i"; "j" ] in
    let nest =
      B.nest "walk" x [ 32; 32 ]
        [ B.read "A" [ B.var x "j"; B.var x "i" ] ]
    in
    let prog =
      Program.make ~name:"ephemeral" [ Array_info.make "A" [ 32; 32 ] ] [ nest ]
    in
    Weak.set w 0 (Some prog);
    ignore (Locality.profiler prog ~array_name:"A" ~layout:(Layout.col_major 2))
  in
  profile_fresh ();
  Gc.full_major ();
  Alcotest.(check bool) "profiled program collected" false (Weak.check w 0)

let test_profiler_distinct_layouts_distinct_entries () =
  (* A single loop walking one column of a 64x64 array.  Depth 1 means
     exactly one loop permutation, so min-over-perms cannot mask the
     layout: col-major streams the column (few misses) while row-major
     strides a full row apart (a miss per iteration).  The profiles must
     separate, proving the cache keys on the layout and not just the
     array name. *)
  let x = B.ctx [ "i" ] in
  let nest =
    B.nest "col_walk" x [ 64 ] [ B.read "A" [ B.var x "i"; B.const x 0 ] ]
  in
  let prog =
    Program.make ~name:"colwalk" [ Array_info.make "A" [ 64; 64 ] ] [ nest ]
  in
  let p = Locality.profiler prog in
  let row = p ~array_name:"A" ~layout:(Layout.row_major 2)
  and col = p ~array_name:"A" ~layout:(Layout.col_major 2) in
  Alcotest.(check bool) "row and col profiles differ" true (row <> col)

(* Queries from several Domains: the entry is staged and the profiles
   computed outside the memo's locks, so two Domains may stage one
   program or compute one key at once.  Every (array, layout) of a fresh
   scale-100 is asked twice over, from a worker (which stages the entry
   itself), and must match a serial pass over another fresh copy. *)
let test_profiler_concurrent_queries () =
  let fresh () = Suite.by_name "scale-100" in
  let spec = fresh () in
  let net = (Spec.extract spec).Build.network in
  let queries =
    Array.concat
      (List.init (Network.num_vars net) (fun i ->
           Array.init (Network.domain_size net i) (fun v ->
               (Network.name net i, Network.value net i v))))
  in
  let n = Array.length queries in
  let prog = spec.Spec.program in
  let parallel = Array.make (2 * n) [||] in
  Mlo_support.Pool.parallel_iter ~domains:2 (2 * n) (fun k ->
      let array_name, layout = queries.(k mod n) in
      parallel.(k) <- Locality.profiler prog ~array_name ~layout);
  let serial = Locality.profiler (fresh ()).Spec.program in
  Array.iteri
    (fun k (array_name, layout) ->
      let expected = serial ~array_name ~layout in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "%s query %d" array_name k)
        expected parallel.(k);
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "%s repeat %d" array_name k)
        expected parallel.(k + n))
    queries

let () =
  Alcotest.run "locality"
    [
      ( "accuracy",
        [ Alcotest.test_case "suite within 15%" `Slow test_suite_accuracy ] );
      ( "exactness",
        [
          QCheck_alcotest.to_alcotest prop_fully_assoc_exact;
          Alcotest.test_case "exact on most of the family" `Slow
            test_exactness_frequency;
        ] );
      ( "costcheck",
        [
          Alcotest.test_case "suite passes the default threshold" `Slow
            test_costcheck_suite_clean;
          Alcotest.test_case "divergence is an error diagnostic" `Slow
            test_costcheck_divergence_contract;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "benchmarks: sound and never costlier" `Slow
            test_prune_benchmarks;
          Alcotest.test_case "mxm drops a dominated value" `Quick
            test_prune_mxm_drops_padding;
          QCheck_alcotest.to_alcotest prop_prune_preserves_satisfiability;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "memoization is invisible" `Quick
            test_profiler_memo_invisible;
          Alcotest.test_case "distinct layouts get distinct entries" `Quick
            test_profiler_distinct_layouts_distinct_entries;
          Alcotest.test_case "entries die with their program" `Quick
            test_profiler_entry_dies_with_program;
          Alcotest.test_case "concurrent queries match serial" `Quick
            test_profiler_concurrent_queries;
        ] );
    ]
