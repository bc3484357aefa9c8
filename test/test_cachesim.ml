(* Tests for the cache simulator: set-associative LRU caches, the
   two-level hierarchy, address mapping, and trace-driven simulation. *)

module Cache = Mlo_cachesim.Cache
module Hierarchy = Mlo_cachesim.Hierarchy
module Address_map = Mlo_cachesim.Address_map
module Compiled_trace = Mlo_cachesim.Compiled_trace
module Simulate = Mlo_cachesim.Simulate
module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Layout = Mlo_layout.Layout
module Hyperplane = Mlo_layout.Hyperplane
module Random_program = Mlo_workloads.Random_program
module Rng = Mlo_csp.Rng

(* ------------------------------------------------------------------ *)
(* Cache geometry                                                       *)
(* ------------------------------------------------------------------ *)

let test_geometry_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache.geometry: sizes must be positive powers of two")
    (fun () -> ignore (Cache.geometry ~size_bytes:100 ~assoc:2 ~line_bytes:32));
  Alcotest.check_raises "too small"
    (Invalid_argument "Cache.geometry: capacity below one set") (fun () ->
      ignore (Cache.geometry ~size_bytes:32 ~assoc:2 ~line_bytes:32))

let small_cache () =
  (* 4 sets x 2 ways x 16B lines = 128B *)
  Cache.create (Cache.geometry ~size_bytes:128 ~assoc:2 ~line_bytes:16)

let test_cache_hit_miss () =
  let c = small_cache () in
  Alcotest.(check int) "sets" 4 (Cache.sets c);
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Cache.access c 15);
  Alcotest.(check bool) "miss next line" false (Cache.access c 16);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Alcotest.(check int) "accesses" 3 (Cache.accesses c)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* three lines mapping to set 0: line addresses 0, 64, 128 (4 sets x
     16B = 64B stride) *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  Alcotest.(check bool) "both resident" true
    (Cache.contains c 0 && Cache.contains c 64);
  ignore (Cache.access c 128);
  (* LRU way held line 0 *)
  Alcotest.(check bool) "line 0 evicted" false (Cache.contains c 0);
  Alcotest.(check bool) "line 64 kept" true (Cache.contains c 64);
  (* touching 64 then inserting another keeps 64 (true LRU, not FIFO) *)
  ignore (Cache.access c 64);
  ignore (Cache.access c 192);
  Alcotest.(check bool) "line 128 evicted" false (Cache.contains c 128);
  Alcotest.(check bool) "line 64 still resident" true (Cache.contains c 64)

let test_cache_invalidate () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  Cache.invalidate_all c;
  Alcotest.(check bool) "gone" false (Cache.contains c 0);
  Cache.reset_counters c;
  Alcotest.(check int) "counters reset" 0 (Cache.accesses c)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                            *)
(* ------------------------------------------------------------------ *)

let test_hierarchy_latencies () =
  let h = Hierarchy.create Hierarchy.paper_config in
  let compute = Hierarchy.paper_config.Hierarchy.compute_cycles_per_access in
  (* cold: L1 miss, L2 miss -> 1 + 6 + 70 *)
  Alcotest.(check int) "cold access" (77 + compute) (Hierarchy.access h 0);
  (* hot: L1 hit -> 1 *)
  Alcotest.(check int) "L1 hit" (1 + compute) (Hierarchy.access h 0);
  (* evicted from L1 only: bring in enough conflicting lines *)
  let c = Hierarchy.counters h in
  Alcotest.(check int) "accesses" 2 c.Hierarchy.accesses;
  Alcotest.(check int) "l1 misses" 1 c.Hierarchy.l1_misses;
  Alcotest.(check int) "l2 misses" 1 c.Hierarchy.l2_misses

let test_hierarchy_l2_hit () =
  let h = Hierarchy.create Hierarchy.paper_config in
  let compute = Hierarchy.paper_config.Hierarchy.compute_cycles_per_access in
  ignore (Hierarchy.access h 0);
  (* L1: 8KB 2-way 32B lines -> 128 sets; addresses 0, 4096, 8192 map to
     set 0; third insertion evicts line 0 from L1.  L2: 64KB 4-way 64B
     lines -> 256 sets x 64B = 16KB stride; these stay resident. *)
  ignore (Hierarchy.access h 4096);
  ignore (Hierarchy.access h 8192);
  Alcotest.(check int) "L2 hit costs 1+6" (7 + compute) (Hierarchy.access h 0)

let test_hierarchy_reset () =
  let h = Hierarchy.create Hierarchy.paper_config in
  ignore (Hierarchy.access h 0);
  Hierarchy.reset h;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "cycles" 0 c.Hierarchy.cycles;
  Alcotest.(check int) "accesses" 0 c.Hierarchy.accesses

let test_miss_rates () =
  let c =
    {
      Hierarchy.accesses = 10;
      l1_hits = 5;
      l1_misses = 5;
      l2_hits = 4;
      l2_misses = 1;
      cycles = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "l1" 0.5 (Hierarchy.l1_miss_rate c);
  Alcotest.(check (float 1e-9)) "l2" 0.2 (Hierarchy.l2_miss_rate c)

(* ------------------------------------------------------------------ *)
(* Address map                                                          *)
(* ------------------------------------------------------------------ *)

let two_array_program ~n =
  let x = B.ctx [ "i"; "j" ] in
  let i = B.var x "i" and j = B.var x "j" in
  let nest =
    B.nest "walk" x [ n; n ] [ B.read "A" [ i; j ]; B.write "B" [ i; j ] ]
  in
  Program.make ~name:"p"
    [ Array_info.make "A" [ n; n ]; Array_info.make "B" [ n; n ] ]
    [ nest ]

let test_address_map_disjoint () =
  let prog = two_array_program ~n:8 in
  let amap = Address_map.build prog ~layouts:(fun _ -> None) in
  Alcotest.(check bool) "B after A" true
    (Address_map.base amap "B" >= Address_map.base amap "A" + (8 * 8 * 4));
  (* all addresses distinct across both arrays *)
  let seen = Hashtbl.create 128 in
  List.iter
    (fun name ->
      for i = 0 to 7 do
        for j = 0 to 7 do
          let a = Address_map.address amap name [| i; j |] in
          Alcotest.(check bool) "fresh address" false (Hashtbl.mem seen a);
          Hashtbl.add seen a ()
        done
      done)
    [ "A"; "B" ];
  Alcotest.(check bool) "footprint covers" true
    (Address_map.footprint_bytes amap >= 2 * 8 * 8 * 4)

let test_address_map_alignment () =
  let prog = two_array_program ~n:8 in
  let amap = Address_map.build ~align:128 prog ~layouts:(fun _ -> None) in
  Alcotest.(check int) "A aligned" 0 (Address_map.base amap "A" mod 128);
  Alcotest.(check int) "B aligned" 0 (Address_map.base amap "B" mod 128)

let test_address_map_row_contiguity () =
  let prog = two_array_program ~n:8 in
  let amap = Address_map.build prog ~layouts:(fun _ -> None) in
  let a0 = Address_map.address amap "A" [| 2; 3 |] in
  let a1 = Address_map.address amap "A" [| 2; 4 |] in
  Alcotest.(check int) "row-major adjacency" 4 (a1 - a0)

let test_address_map_col_layout () =
  let prog = two_array_program ~n:8 in
  let layouts = function
    | "A" -> Some (Layout.col_major 2)
    | _ -> None
  in
  let amap = Address_map.build prog ~layouts in
  let a0 = Address_map.address amap "A" [| 2; 3 |] in
  let a1 = Address_map.address amap "A" [| 3; 3 |] in
  Alcotest.(check int) "column adjacency" 4 (abs (a1 - a0))

(* ------------------------------------------------------------------ *)
(* Simulation: layouts change cache behaviour                           *)
(* ------------------------------------------------------------------ *)

let column_walk_program ~n =
  (* walk B column-wise: j outer, i inner, read B[i][j] *)
  let x = B.ctx [ "j"; "i" ] in
  let j = B.var x "j" and i = B.var x "i" in
  let nest = B.nest "colwalk" x [ n; n ] [ B.read "B" [ i; j ] ] in
  Program.make ~name:"colwalk" [ Array_info.make "B" [ n; n ] ] [ nest ]

let test_layout_changes_misses () =
  let n = 64 in
  let prog = column_walk_program ~n in
  let row = Simulate.run prog ~layouts:(fun _ -> None) in
  let col =
    Simulate.run prog ~layouts:(fun _ -> Some (Layout.col_major 2))
  in
  (* a column walk through a row-major array misses on (almost) every
     access; through a column-major array it misses once per line *)
  Alcotest.(check bool) "col-major far fewer misses" true
    (col.Simulate.counters.Hierarchy.l1_misses * 4
    < row.Simulate.counters.Hierarchy.l1_misses);
  Alcotest.(check bool) "col-major fewer cycles" true
    (Simulate.cycles col < Simulate.cycles row);
  Alcotest.(check int) "trip count" (n * n) row.Simulate.trip_count

let test_simulate_deterministic () =
  let prog = column_walk_program ~n:32 in
  let r1 = Simulate.run prog ~layouts:(fun _ -> None) in
  let r2 = Simulate.run prog ~layouts:(fun _ -> None) in
  Alcotest.(check int) "same cycles" (Simulate.cycles r1) (Simulate.cycles r2)

let test_improvement_metrics () =
  let baseline =
    {
      Simulate.counters =
        {
          Hierarchy.accesses = 0;
          l1_hits = 0;
          l1_misses = 0;
          l2_hits = 0;
          l2_misses = 0;
          cycles = 200;
        };
      footprint_bytes = 0;
      trip_count = 0;
    }
  in
  let better = { baseline with Simulate.counters = { baseline.Simulate.counters with Hierarchy.cycles = 100 } } in
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Simulate.speedup ~baseline better);
  Alcotest.(check (float 1e-9)) "improvement" 50.0
    (Simulate.improvement_percent ~baseline better)

(* ------------------------------------------------------------------ *)
(* Compiled engine ≡ reference engine                                   *)
(* ------------------------------------------------------------------ *)

let counters_tuple (c : Hierarchy.counters) =
  ( c.Hierarchy.accesses,
    c.Hierarchy.l1_hits,
    c.Hierarchy.l1_misses,
    c.Hierarchy.l2_hits,
    c.Hierarchy.l2_misses,
    c.Hierarchy.cycles )

let report_ints (r : Simulate.report) =
  let a, b, c, d, e, f = counters_tuple r.Simulate.counters in
  [ a; b; c; d; e; f; r.Simulate.footprint_bytes; r.Simulate.trip_count ]

let check_reports_equal what a b =
  Alcotest.(check (list int))
    (what ^ ": counters/footprint/trips")
    (report_ints a) (report_ints b)

let matmul32_program () =
  let mm, req =
    Mlo_workloads.Kernels.matmul ~name:"mm" ~n:32 ~c:"C" ~a:"A" ~b:"B"
  in
  Program.make ~name:"bench-mm" (Mlo_workloads.Kernels.declare req) [ mm ]

let colB_layouts = function
  | "B" -> Some (Layout.col_major 2)
  | _ -> None

let test_engines_agree_matmul () =
  let prog = matmul32_program () in
  List.iter
    (fun (what, layouts) ->
      check_reports_equal what
        (Simulate.run_reference prog ~layouts)
        (Simulate.run prog ~layouts))
    [ ("row", fun _ -> None); ("colB", colB_layouts) ]

(* Pin the Table-3 matmul32 cycle counts exactly: any slip in the
   compiled address math (or in cache/hierarchy accounting) moves these
   numbers.  Values confirmed identical under both engines. *)
let pinned_matmul32_row_cycles = 292426
let pinned_matmul32_colB_cycles = 279040

let test_pinned_table3_cycles () =
  let prog = matmul32_program () in
  let row = Simulate.run prog ~layouts:(fun _ -> None) in
  let col = Simulate.run prog ~layouts:colB_layouts in
  Alcotest.(check int) "matmul32 row cycles" pinned_matmul32_row_cycles
    (Simulate.cycles row);
  Alcotest.(check int) "matmul32 colB cycles" pinned_matmul32_colB_cycles
    (Simulate.cycles col)

let test_engines_agree_suite () =
  List.iter
    (fun spec ->
      let prog = spec.Mlo_workloads.Spec.sim_program in
      check_reports_equal spec.Mlo_workloads.Spec.name
        (Simulate.run_reference prog ~layouts:(fun _ -> None))
        (Simulate.run prog ~layouts:(fun _ -> None)))
    (Mlo_workloads.Suite.all ())

(* Random-program equivalence: random affine programs (skewed accesses,
   temporal references, negative-stride lifts) under random per-array
   layout assignments from the 2-D palette. *)
let random_layout_assignment seed names =
  let rng = Rng.create seed in
  let palette =
    [|
      [| 1; 0 |]; [| 0; 1 |]; [| 1; -1 |]; [| 1; 1 |]; [| 1; 2 |];
      [| 2; 1 |]; [| 1; -2 |]; [| 2; -1 |];
    |]
  in
  let chosen =
    List.map
      (fun name ->
        if Rng.int rng 4 = 0 then (name, None)
        else
          let v = palette.(Rng.int rng (Array.length palette)) in
          (name, Some (Layout.of_hyperplane (Hyperplane.make v))))
      names
  in
  fun name -> List.assoc name chosen

let prop_compiled_equals_reference =
  QCheck.Test.make ~name:"compiled engine = reference engine" ~count:25
    (QCheck.int_range 0 10_000) (fun seed ->
      let prog =
        Random_program.generate
          {
            Random_program.default with
            name = Printf.sprintf "rand%d" seed;
            seed;
            num_arrays = 5;
            num_nests = 6;
            extent = 16;
          }
      in
      let layouts =
        random_layout_assignment (seed + 1) (Program.array_names prog)
      in
      let r = Simulate.run_reference prog ~layouts in
      let c = Simulate.run prog ~layouts in
      counters_tuple r.Simulate.counters = counters_tuple c.Simulate.counters
      && r.Simulate.footprint_bytes = c.Simulate.footprint_bytes
      && r.Simulate.trip_count = c.Simulate.trip_count)

let prop_run_many_matches_run =
  QCheck.Test.make ~name:"run_many = map run (4 domains)" ~count:10
    (QCheck.int_range 0 1_000) (fun seed ->
      let prog =
        Random_program.generate
          {
            Random_program.default with
            name = Printf.sprintf "many%d" seed;
            seed;
            num_arrays = 4;
            num_nests = 4;
            extent = 16;
          }
      in
      let names = Program.array_names prog in
      let layouts_list =
        List.init 6 (fun i -> random_layout_assignment (seed + i) names)
      in
      let batch = Simulate.run_many ~domains:4 prog ~layouts_list in
      let solo = List.map (fun layouts -> Simulate.run prog ~layouts) layouts_list in
      List.for_all2
        (fun (a : Simulate.report) (b : Simulate.report) ->
          counters_tuple a.Simulate.counters = counters_tuple b.Simulate.counters
          && a.Simulate.footprint_bytes = b.Simulate.footprint_bytes
          && a.Simulate.trip_count = b.Simulate.trip_count)
        batch solo)

(* The profiler's query path: one array's forms, folded over the default
   map with that array's layout swapped in, must equal that array's
   entries of a full instantiate.  Probes the first, a middle and the
   last declared array under every 2-D palette layout; the skewed and
   diagonal ones grow the footprint and re-base the arrays declared
   after the probe, which must leave the probe's own forms alone.  A
   rank mismatch raises [Address_map.build]'s error. *)
let prop_array_forms_match_instantiate =
  QCheck.Test.make ~name:"one-array forms = instantiate" ~count:25
    (QCheck.int_range 0 10_000) (fun seed ->
      let prog =
        Random_program.generate
          {
            Random_program.default with
            name = Printf.sprintf "arrayforms%d" seed;
            seed;
            num_arrays = 6;
            num_nests = 6;
            extent = 16;
          }
      in
      let skel = Compiled_trace.skeleton prog in
      let staged = Address_map.build prog ~layouts:(fun _ -> None) in
      let names = Array.of_list (Program.array_names prog) in
      let n = Array.length names in
      let all_nests = Array.init (Array.length (Program.nests prog)) Fun.id in
      let candidates =
        List.map
          (fun v -> Layout.of_hyperplane (Hyperplane.make v))
          [
            [| 1; 0 |]; [| 0; 1 |]; [| 1; -1 |]; [| 1; 1 |]; [| 1; 2 |];
            [| 2; 1 |]; [| 1; -2 |]; [| 2; -1 |];
          ]
      in
      List.for_all
        (fun name ->
          let agrees layout =
            let full =
              Compiled_trace.forms
                (Compiled_trace.instantiate skel ~layouts:(fun a ->
                     if a = name then Some layout else None))
            in
            let expected =
              Array.map
                (fun (nf : Compiled_trace.nest_form) ->
                  Array.of_list
                    (List.filter
                       (fun (_, (a : Compiled_trace.access_form)) ->
                         a.Compiled_trace.form_array = name)
                       (List.mapi
                          (fun k a -> (k, a))
                          (Array.to_list nf.Compiled_trace.form_accesses))))
                full
            in
            Compiled_trace.array_forms skel staged name layout ~nests:all_nests
            = expected
          in
          let grows layout =
            Address_map.footprint_bytes
              (Address_map.build prog ~layouts:(fun a ->
                   if a = name then Some layout else None))
            > Address_map.footprint_bytes staged
          in
          let rank_mismatch_raises =
            match
              Compiled_trace.array_forms skel staged name (Layout.row_major 3)
                ~nests:all_nests
            with
            | _ -> false
            | exception Invalid_argument msg ->
              msg = "Address_map.build: layout rank for " ^ name
          in
          List.for_all agrees candidates
          && List.exists grows candidates
          && rank_mismatch_raises)
        [ names.(0); names.(n / 2); names.(n - 1) ])

let test_run_batch_mixed_programs () =
  let p1 = matmul32_program () in
  let p2 = column_walk_program ~n:32 in
  let jobs =
    [ (p1, (fun _ -> None)); (p2, (fun _ -> None)); (p1, colB_layouts) ]
  in
  let batch = Simulate.run_batch ~domains:2 jobs in
  let solo = List.map (fun (p, layouts) -> Simulate.run p ~layouts) jobs in
  List.iter2 (check_reports_equal "run_batch") solo batch

let test_address_map_unknown_array () =
  let prog = two_array_program ~n:4 in
  let amap = Address_map.build prog ~layouts:(fun _ -> None) in
  match Address_map.address amap "Z" [| 0; 0 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    (* diagnosable: the message must name the offending array *)
    let mentions_z =
      let re = {|"Z"|} in
      let rec find i =
        i + String.length re <= String.length msg
        && (String.sub msg i (String.length re) = re || find (i + 1))
      in
      find 0
    in
    Alcotest.(check bool) "names the array" true mentions_z

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_hits_plus_misses =
  QCheck.Test.make ~name:"hits + misses = accesses" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 200) (QCheck.int_range 0 4096))
    (fun addrs ->
      let c = small_cache () in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      Cache.hits c + Cache.misses c = List.length addrs)

let prop_second_access_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:100
    (QCheck.int_range 0 100_000) (fun addr ->
      let c = small_cache () in
      ignore (Cache.access c addr);
      Cache.access c addr)

let prop_working_set_within_capacity_no_capacity_misses =
  QCheck.Test.make ~name:"small working sets only cold-miss" ~count:50
    (QCheck.int_range 1 4) (fun lines ->
      let c = small_cache () in
      (* [lines] distinct lines, all in different sets *)
      let addrs = List.init lines (fun i -> i * 16) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      Cache.misses c = lines && Cache.hits c = lines)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hits_plus_misses;
      prop_second_access_hits;
      prop_working_set_within_capacity_no_capacity_misses;
    ]

let equivalence_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiled_equals_reference;
      prop_run_many_matches_run;
      prop_array_forms_match_instantiate;
    ]

let () =
  Alcotest.run "cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "L2 hits" `Quick test_hierarchy_l2_hit;
          Alcotest.test_case "reset" `Quick test_hierarchy_reset;
          Alcotest.test_case "miss rates" `Quick test_miss_rates;
        ] );
      ( "address_map",
        [
          Alcotest.test_case "disjoint arrays" `Quick test_address_map_disjoint;
          Alcotest.test_case "alignment" `Quick test_address_map_alignment;
          Alcotest.test_case "row contiguity" `Quick test_address_map_row_contiguity;
          Alcotest.test_case "column layout" `Quick test_address_map_col_layout;
          Alcotest.test_case "unknown array diagnosable" `Quick
            test_address_map_unknown_array;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "engines agree on matmul32" `Quick
            test_engines_agree_matmul;
          Alcotest.test_case "pinned Table-3 cycles" `Quick
            test_pinned_table3_cycles;
          Alcotest.test_case "engines agree on the suite" `Quick
            test_engines_agree_suite;
          Alcotest.test_case "run_batch mixed programs" `Quick
            test_run_batch_mixed_programs;
        ]
        @ equivalence_props );
      ( "simulate",
        [
          Alcotest.test_case "layout changes misses" `Quick test_layout_changes_misses;
          Alcotest.test_case "deterministic" `Quick test_simulate_deterministic;
          Alcotest.test_case "metrics" `Quick test_improvement_metrics;
        ] );
      ("properties", props);
    ]
