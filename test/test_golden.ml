(* Golden regression pins.

   The search is deterministic given a seed and the simulator is
   deterministic outright, so the exact consistency-check / node counts
   behind Table 2 and the exact cycle counts behind Table 3 are stable
   artifacts of the implementation.  Pinning them catches any silent
   change to search order, constraint generation or the cache model —
   the counters every experiment in the paper is reproduced through.

   If a change legitimately alters these numbers (a new heuristic
   tie-break, a domain-ordering fix), regenerate the strings below with
   the printed "actual" of the failing assertion and say why in the
   commit. *)

module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Build = Mlo_netgen.Build
module Solver = Mlo_csp.Solver
module Schemes = Mlo_csp.Schemes
module Stats = Mlo_csp.Stats
module Cdl = Mlo_csp.Cdl
module Bnb = Mlo_csp.Bnb
module Optimizer = Mlo_core.Optimizer
module Proof = Mlo_verify.Proof
module Tables = Mlo_experiments.Tables

let workloads = [ "med-im04"; "mxm"; "radar"; "shape"; "track" ]

(* ------------------------------------------------------------------ *)
(* Table 2: work counts (seed 1)                                        *)
(* ------------------------------------------------------------------ *)

let golden_table2 =
  "Med-Im04 h=240 b=623552 e=1057\n\
   MxM h=18 b=12 e=6\n\
   Radar h=798 b=18019 e=534\n\
   Shape h=1124 b=479076 e=801\n\
   Track h=940 b=1584 e=532"

let test_table2 () =
  let actual =
    Tables.run_table2 ~seed:1 ()
    |> List.map (fun r ->
           Printf.sprintf "%s h=%d b=%d e=%d" r.Tables.t2_name
             r.Tables.heuristic.Tables.work r.Tables.base.Tables.work
             r.Tables.enhanced.Tables.work)
    |> String.concat "\n"
  in
  Alcotest.(check string) "table2 work counts (seed 1)" golden_table2 actual

(* ------------------------------------------------------------------ *)
(* Solver node/check counts on the workload networks (seed 1)           *)
(* ------------------------------------------------------------------ *)

let golden_nodes =
  "med-im04 base n=549147 c=623552 enhanced n=594 c=1057\n\
   mxm base n=11 c=12 enhanced n=5 c=6\n\
   radar base n=16836 c=18019 enhanced n=82 c=534\n\
   shape base n=492577 c=479076 enhanced n=134 c=801\n\
   track base n=1037 c=1584 enhanced n=68 c=532"

let test_solver_nodes () =
  let actual =
    workloads
    |> List.map (fun name ->
           let build = Spec.extract (Suite.by_name name) in
           let net = build.Build.network in
           let run config =
             let r = Solver.solve ~config net in
             (match r.Solver.outcome with
             | Solver.Solution _ -> ()
             | Solver.Unsatisfiable | Solver.Aborted ->
               Alcotest.failf "%s: no solution" name);
             r.Solver.stats
           in
           let b = run (Schemes.base ~seed:1 ()) in
           let e = run (Schemes.enhanced ~seed:1 ()) in
           Printf.sprintf "%s base n=%d c=%d enhanced n=%d c=%d" name
             b.Stats.nodes b.Stats.checks e.Stats.nodes e.Stats.checks)
    |> String.concat "\n"
  in
  Alcotest.(check string) "solver node/check counts (seed 1)" golden_nodes
    actual

(* ------------------------------------------------------------------ *)
(* Table 3: simulated cycle counts (seed 1)                             *)
(* ------------------------------------------------------------------ *)

let golden_table3 =
  "Med-Im04 o=1982232 h=1646296 b=1632096 e=1639362\n\
   MxM o=73851486 h=38531412 b=43041988 e=39069274\n\
   Radar o=5938168 h=5363030 b=4940462 e=4940462\n\
   Shape o=8475572 h=7599182 b=6863176 e=6863176\n\
   Track o=6777168 h=5856812 b=5159550 e=5159550"

let test_table3 () =
  let actual =
    Tables.run_table3 ~seed:1 ()
    |> List.map (fun r ->
           Printf.sprintf "%s o=%d h=%d b=%d e=%d" r.Tables.t3_name
             r.Tables.original_cycles r.Tables.heuristic_cycles
             r.Tables.base_cycles r.Tables.enhanced_cycles)
    |> String.concat "\n"
  in
  Alcotest.(check string) "table3 cycle counts (seed 1)" golden_table3 actual

(* ------------------------------------------------------------------ *)
(* Decision traces of cdl, enhanced and bnb                             *)
(* ------------------------------------------------------------------ *)

(* Every search counter, the outcome and (for bnb) the objective value:
   a change to any variable or value order, backjump target, learned
   nogood, restart or bound test moves at least one of them. *)
let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 8

let verdict = function
  | Solver.Solution a ->
    "sat@"
    ^ digest (String.concat "," (Array.to_list (Array.map string_of_int a)))
  | Solver.Unsatisfiable -> "unsat"
  | Solver.Aborted -> "aborted"

let trace_line label verdict ?objective (s : Stats.t) =
  Printf.sprintf
    "%s %s%s n=%d c=%d bt=%d bj=%d pr=%d le=%d fo=%d re=%d bo=%d inc=%d" label
    verdict
    (match objective with
    | None -> ""
    | Some v -> Printf.sprintf " obj=%.17g" v)
    s.Stats.nodes s.Stats.checks s.Stats.backtracks s.Stats.backjumps
    s.Stats.prunings s.Stats.learned s.Stats.forgotten s.Stats.restarts
    s.Stats.bounded s.Stats.incumbents

let network name = (Spec.extract (Suite.by_name name)).Build.network

let golden_cdl =
  "cdl hard-80 sat@b015083b n=120 c=441 bt=8 bj=3 pr=196 le=11 fo=0 re=0 bo=0 inc=0\n\
   cdl hard-150 unsat n=508 c=2329 bt=70 bj=34 pr=1427 le=105 fo=0 re=1 bo=0 inc=0\n\
   cdl med-im04 sat@d36e241d n=60 c=247 bt=0 bj=0 pr=250 le=0 fo=0 re=0 bo=0 inc=0\n\
   cdl mxm sat@65cedba1 n=5 c=11 bt=0 bj=0 pr=20 le=0 fo=0 re=0 bo=0 inc=0\n\
   cdl radar sat@20033e03 n=59 c=568 bt=0 bj=0 pr=392 le=0 fo=0 re=0 bo=0 inc=0\n\
   cdl shape sat@4de596ae n=82 c=818 bt=0 bj=0 pr=579 le=0 fo=0 re=0 bo=0 inc=0\n\
   cdl track sat@933a5b0c n=49 c=556 bt=0 bj=0 pr=337 le=0 fo=0 re=0 bo=0 inc=0\n\
   cdl-restarts hard-80 sat@efd2582f n=304 c=1482 bt=11 bj=13 pr=777 le=37 fo=33 re=13 bo=0 inc=0\n\
   enhanced hard-80 sat@a689e4ee n=79754 c=201335 bt=175 bj=4166 pr=0 le=0 fo=0 re=0 bo=0 inc=0"

let test_cdl_traces () =
  let cdl ?(config = Cdl.default_config) label name =
    let r = Cdl.solve_components ~config (network name) in
    trace_line label (verdict r.Solver.outcome) r.Solver.stats
  in
  let actual =
    [
      cdl "cdl hard-80" "hard-80";
      cdl "cdl hard-150" "hard-150";
    ]
    @ List.map (fun w -> cdl ("cdl " ^ w) w) workloads
    @ [
        cdl "cdl-restarts hard-80" "hard-80"
          ~config:
            {
              Cdl.default_config with
              Cdl.restarts = 20;
              restart_base = 1;
              learn_limit = 2;
            };
        (let r =
           Solver.solve_components ~config:(Schemes.enhanced ~seed:1 ())
             (network "hard-80")
         in
         trace_line "enhanced hard-80" (verdict r.Solver.outcome) r.Solver.stats);
      ]
    |> String.concat "\n"
  in
  Alcotest.(check string) "cdl/enhanced decision traces" golden_cdl actual

let golden_bnb =
  "bnb med-im04 sat@dce353d6 obj=26132 n=57 c=236 bt=52 bj=0 pr=219 le=52 fo=0 re=0 bo=3 inc=1\n\
   bnb mxm sat@3907d9ca obj=67536 n=14 c=26 bt=4 bj=0 pr=64 le=4 fo=0 re=0 bo=5 inc=1\n\
   bnb radar sat@299c9d38 obj=97672 n=61 c=568 bt=56 bj=0 pr=416 le=56 fo=0 re=0 bo=0 inc=1\n\
   bnb shape sat@617b1e3c obj=136978 n=85 c=821 bt=79 bj=0 pr=618 le=79 fo=0 re=0 bo=0 inc=1\n\
   bnb track sat@f01ff32b obj=102167 n=52 c=561 bt=46 bj=0 pr=397 le=46 fo=0 re=0 bo=0 inc=1\n\
   bnb scale-100 sat@ed5da377 obj=14057 n=158 c=317 bt=55 bj=0 pr=325 le=55 fo=0 re=0 bo=40 inc=50\n\
   bnb-synthetic hard-36 sat@7b64d013 n=10255 c=38337 bt=5589 bj=194 pr=29722 le=5783 fo=2000 re=0 bo=3731 inc=6\n\
   bnb-synthetic hard-150 unsat n=183 c=728 bt=35 bj=11 pr=374 le=46 fo=0 re=0 bo=0 inc=0"

let test_bnb_traces () =
  let bnb ?domains name =
    let spec = Suite.by_name name in
    let sol =
      Optimizer.optimize ~candidates:spec.Spec.candidates ?domains
        (Optimizer.Bnb Bnb.default_config) spec.Spec.program
    in
    (* the layouts stand in for the assignment the optimizer decodes *)
    let layouts =
      List.map
        (fun (a, l) -> Format.asprintf "%s=%a" a Mlo_layout.Layout.pp l)
        sol.Optimizer.layouts
    in
    trace_line ("bnb " ^ name)
      ("sat@" ^ digest (String.concat ";" layouts))
      ?objective:sol.Optimizer.objective_value
      (Option.get sol.Optimizer.solver_stats)
  in
  (* the suite never backjumps under bnb; a synthetic cost on the hard
     family drives the bound, the blame and the UNSAT proof *)
  let synthetic name =
    let r =
      Bnb.branch_and_bound
        ~cost:(fun var v -> float_of_int (((7 * v) + String.length var) mod 5))
        (network name)
    in
    trace_line ("bnb-synthetic " ^ name) (verdict r.Solver.outcome)
      r.Solver.stats
  in
  let actual =
    List.map (fun w -> bnb w) workloads
    @ [ bnb ~domains:2 "scale-100"; synthetic "hard-36"; synthetic "hard-150" ]
    |> String.concat "\n"
  in
  Alcotest.(check string) "bnb decision traces" golden_bnb actual

(* ------------------------------------------------------------------ *)
(* Cost tables                                                          *)
(* ------------------------------------------------------------------ *)

(* The exact bits of [Optimizer.cost_table] under both objectives: every
   entry printed with [%h], so any change to the locality profiler, the
   address map or the table's fill order that moves a single float ulp
   moves a digest.  Each table is also rebuilt on 2 Domains over a fresh
   copy of the workload (a cold profiler memo), and must match byte for
   byte. *)
let golden_tables =
  "med-im04 misses entries=258 28a1c3b7\n\
   med-im04 lines entries=258 28a1c3b7\n\
   mxm misses entries=34 b4d32ea4\n\
   mxm lines entries=34 5b6583c9\n\
   radar misses entries=422 86cf9aa6\n\
   radar lines entries=422 86cf9aa6\n\
   shape misses entries=656 e4764227\n\
   shape lines entries=656 e4764227\n\
   track misses entries=388 04d7b99d\n\
   track lines entries=388 04d7b99d\n\
   scale-100 misses entries=273 4f773718\n\
   scale-100 lines entries=273 4f773718\n\
   scale-1000 misses entries=2760 04a18c3d\n\
   scale-1000 lines entries=2760 04a18c3d"

let test_cost_tables () =
  let bits t =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun row ->
              String.concat ","
                (Array.to_list (Array.map (Printf.sprintf "%h") row)))
            t))
  in
  let table objective name =
    (* Suite.by_name builds a fresh program on every call *)
    let build ?domains () =
      let spec = Suite.by_name name in
      Optimizer.cost_table ?domains ~objective spec.Spec.program
        (Spec.extract spec).Build.network
    in
    let t = build () in
    Alcotest.(check string)
      (Printf.sprintf "%s %s on 2 domains" name
         (Optimizer.objective_label objective))
      (bits t)
      (bits (build ~domains:2 ()));
    Printf.sprintf "%s %s entries=%d %s" name
      (Optimizer.objective_label objective)
      (Array.fold_left (fun a row -> a + Array.length row) 0 t)
      (digest (bits t))
  in
  let actual =
    List.concat_map
      (fun w ->
        [ table Optimizer.Estimated_misses w; table Optimizer.Distinct_lines w ])
      (workloads @ [ "scale-100"; "scale-1000" ])
    |> String.concat "\n"
  in
  Alcotest.(check string) "cost-table digests" golden_tables actual

(* ------------------------------------------------------------------ *)
(* Certificates                                                         *)
(* ------------------------------------------------------------------ *)

(* The exact bytes of [Optimizer.optimize ~proof] certificates: header,
   every preprocessing deletion, component, nogood and incumbent step in
   emission order, and the verdict.  Covers a SAT and an UNSAT cdl run,
   a single- and a multi-component bnb optimum, a dominance-pruned and
   AC-preprocessed run (Del steps of both kinds) and a portfolio run. *)
let golden_proofs =
  "cdl hard-80 sat steps=12 1cc1c2ee\n\
   cdl hard-150 unsat steps=106 88b92756\n\
   bnb med-im04 optimal steps=54 c414de1c\n\
   bnb-domains-2 scale-100 optimal steps=155 0b885e66\n\
   enhanced-ac-pruned med-im04 sat steps=205 d72bbff9\n\
   portfolio hard-80 sat steps=12 19c71b7b"

let test_proof_digests () =
  let proof ?domains ?(prune = false) label scheme name =
    let spec = Suite.by_name name in
    let captured = ref None in
    (try
       ignore
         (Optimizer.optimize ~candidates:spec.Spec.candidates ?domains
            ~prune_dominated:prune
            ~proof:(fun p -> captured := Some p)
            scheme spec.Spec.program)
     with Optimizer.No_solution _ -> ());
    let p = Option.get !captured in
    Printf.sprintf "%s %s %s steps=%d %s" label name
      (Proof.verdict_label (Option.get p.Proof.verdict))
      (List.length p.Proof.steps)
      (digest (String.concat "\n" (Proof.to_lines p)))
  in
  let cdl = Optimizer.Cdl Cdl.default_config in
  let bnb = Optimizer.Bnb Bnb.default_config in
  let actual =
    [
      proof "cdl" cdl "hard-80";
      proof "cdl" cdl "hard-150";
      proof "bnb" bnb "med-im04";
      proof "bnb-domains-2" ~domains:2 bnb "scale-100";
      proof "enhanced-ac-pruned" ~prune:true (Optimizer.Enhanced_ac 1)
        "med-im04";
      proof "portfolio"
        (Optimizer.Portfolio Mlo_csp.Portfolio.default_config)
        "hard-80";
    ]
    |> String.concat "\n"
  in
  Alcotest.(check string) "certificate digests" golden_proofs actual

let () =
  Alcotest.run "golden"
    [
      ( "pins",
        [
          Alcotest.test_case "table2 work" `Slow test_table2;
          Alcotest.test_case "solver nodes" `Slow test_solver_nodes;
          Alcotest.test_case "table3 cycles" `Slow test_table3;
          Alcotest.test_case "cdl/enhanced traces" `Slow test_cdl_traces;
          Alcotest.test_case "bnb traces" `Slow test_bnb_traces;
          Alcotest.test_case "certificate digests" `Slow test_proof_digests;
          Alcotest.test_case "cost-table digests" `Slow test_cost_tables;
        ] );
    ]
