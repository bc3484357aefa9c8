(* Certificate checking: machine-generated proofs verify, tampered
   proofs are rejected.

   The checker's contract has two sides.  Completeness: every proof the
   solver stack emits — cdl and bnb event streams over random networks,
   plus the real workloads through the Optimizer plumbing — must be
   accepted.  Soundness: a proof damaged in any way that changes what it
   claims (flipped verdict, corrupted cost, weakened bound, missing
   incumbent, truncated file, wrong network digest) must be rejected
   with an [Error], never a crash.  The tampering cases are chosen so
   rejection is guaranteed, not merely likely: each one either breaks a
   checkable invariant outright or asserts something the brute-forced
   solution set contradicts. *)

module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Cdl = Mlo_csp.Cdl
module Bnb = Mlo_csp.Bnb
module Brute = Mlo_csp.Brute
module Rng = Mlo_csp.Rng
module Proof = Mlo_verify.Proof
module Checker = Mlo_verify.Checker
module Spec = Mlo_workloads.Spec
module Suite = Mlo_workloads.Suite
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Optimizer = Mlo_core.Optimizer
module Explain = Mlo_core.Explain
module Netcheck = Mlo_analysis.Netcheck
module Simulate = Mlo_cachesim.Simulate
module Hierarchy = Mlo_cachesim.Hierarchy

(* Same generator family as test_cdl/test_bnb: small random networks of
   2-6 variables, domains of 1-3 values, ~60% pair density, ~55% allowed
   pairs — roughly half the instances unsatisfiable. *)
let random_network seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 5 in
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let domains =
    Array.init n (fun _ -> Array.init (1 + Rng.int rng 3) Fun.id)
  in
  let net = Network.create ~names ~domains in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.int rng 100 < 60 then begin
        let pairs = ref [] in
        for vi = 0 to Array.length domains.(i) - 1 do
          for vj = 0 to Array.length domains.(j) - 1 do
            if Rng.int rng 100 < 55 then pairs := (vi, vj) :: !pairs
          done
        done;
        Network.add_allowed net i j !pairs
      end
    done
  done;
  net

let random_costs seed net =
  let rng = Rng.create (seed + 9001) in
  Array.init (Network.num_vars net) (fun i ->
      Array.init (Network.domain_size net i) (fun _ ->
          float_of_int (Rng.int rng 10)))

(* ------------------------------------------------------------------ *)
(* Certifying raw-network solves through the shipped recorder           *)
(* ------------------------------------------------------------------ *)

let certify_cdl ?(config = { Cdl.default_config with Cdl.restarts = 4 }) net
    =
  let r = Proof.recorder () in
  let result = Cdl.solve_components ~config ~on_event:(Proof.on_event r) net in
  ( Proof.certificate r ~workload:"random" ~scheme:"cdl" net result,
    result.Solver.outcome )

let certify_bnb ?(config = Bnb.default_config) ~costs net =
  let r = Proof.recorder ~costs () in
  let idx name = int_of_string (String.sub name 1 (String.length name - 1)) in
  let cost name v = costs.(idx name).(v) in
  let result =
    Bnb.branch_and_bound ~config ~on_event:(Proof.on_event r) ~cost net
  in
  ( Proof.certificate r ~workload:"random" ~scheme:"bnb" ~objective:"synthetic"
      net result,
    result.Solver.outcome )

let check_ok ?costs what net proof =
  match Checker.check ?costs net proof with
  | Ok () -> ()
  | Error msg -> QCheck.Test.fail_reportf "%s: rejected: %s" what msg

let check_rejected ?costs what net proof =
  match Checker.check ?costs net proof with
  | Error _ -> ()
  | Ok () -> QCheck.Test.fail_reportf "%s: accepted a damaged proof" what

(* ------------------------------------------------------------------ *)
(* Completeness: machine-generated certificates verify                  *)
(* ------------------------------------------------------------------ *)

let prop_cdl_certificates =
  QCheck.Test.make ~name:"cdl certificates verify (sat and unsat)"
    ~count:300 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let proof, _ = certify_cdl net in
      check_ok "cdl" net proof;
      (* and the NDJSON round trip preserves acceptance *)
      match Proof.of_lines (Proof.to_lines proof) with
      | Error msg -> QCheck.Test.fail_reportf "round trip failed: %s" msg
      | Ok proof' ->
        check_ok "cdl round-tripped" net proof';
        true)

(* The forgetful/restartful configurations emit the same nogood stream
   through on_learn but retain fewer: the log must still replay. *)
let prop_cdl_forgetful_certificates =
  QCheck.Test.make ~name:"forgetful/restartful cdl certificates verify"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let config =
        { Cdl.default_config with
          Cdl.restarts = 10;
          restart_base = 1;
          learn_limit = 2 }
      in
      let proof, _ = certify_cdl ~config net in
      check_ok "forgetful cdl" net proof;
      true)

let prop_bnb_certificates =
  QCheck.Test.make ~name:"bnb certificates verify (optimal and unsat)"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let costs = random_costs seed net in
      let proof, _ = certify_bnb ~costs net in
      check_ok ~costs "bnb" net proof;
      true)

(* ------------------------------------------------------------------ *)
(* Soundness: guaranteed-invalid mutations are rejected                 *)
(* ------------------------------------------------------------------ *)

let all_vars net = Array.init (Network.num_vars net) Fun.id

let prop_mutations_rejected =
  QCheck.Test.make ~name:"damaged certificates are rejected" ~count:200
    QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let proof, outcome = certify_cdl net in
      (* digest tamper: the proof no longer speaks about this network *)
      check_rejected "digest" net
        {
          proof with
          Proof.header = { proof.Proof.header with Proof.digest = "0" };
        };
      (* truncation: verdict line lost *)
      check_rejected "no verdict" net { proof with Proof.verdict = None };
      (* an aborted verdict is never acceptable *)
      check_rejected "aborted" net
        { proof with Proof.verdict = Some Proof.Aborted };
      (match outcome with
      | Solver.Solution a ->
        (* flipped verdict: the network is satisfiable, so no replay can
           end in a global refutation *)
        check_rejected "sat flipped to unsat" net
          { proof with Proof.verdict = Some Proof.Unsat };
        (* tampered assignment: out-of-range value *)
        let bad = Array.copy a in
        bad.(0) <- Network.domain_size net 0;
        check_rejected "assignment out of range" net
          { proof with Proof.verdict = Some (Proof.Sat bad) };
        (* a nogood contradicted by a known solution: every literal of
           [a] holds in a satisfying assignment, so "these cannot all
           hold" is false and no refutation attempt can succeed *)
        let lits = Array.mapi (fun i v -> (i, v)) a in
        let bogus =
          [
            Proof.Comp { id = 99; vars = all_vars net };
            Proof.Ng { comp = 99; dead = 0; lits };
          ]
        in
        check_rejected "nogood excluding a solution" net
          { proof with Proof.steps = proof.Proof.steps @ bogus }
      | Solver.Unsatisfiable ->
        (* flipped verdict: claim satisfiable with a fabricated
           assignment — [Network.verify] must refuse it *)
        let a = Array.make (Network.num_vars net) 0 in
        if not (Network.verify net a) then
          check_rejected "unsat flipped to sat" net
            { proof with Proof.verdict = Some (Proof.Sat a) }
      | Solver.Aborted -> ());
      true)

let prop_bnb_mutations_rejected =
  QCheck.Test.make ~name:"damaged optimality certificates are rejected"
    ~count:200 QCheck.small_nat (fun seed ->
      let net = random_network seed in
      let costs = random_costs seed net in
      let proof, outcome = certify_bnb ~costs net in
      (match outcome with
      | Solver.Solution _ ->
        let claimed =
          match proof.Proof.verdict with
          | Some (Proof.Optimal { cost; _ }) -> cost
          | _ -> assert false
        in
        (* optimality without the cost table is unverifiable *)
        check_rejected "optimal without costs" net proof;
        (* claimed optimum lowered below the recomputed assignment cost
           (integer costs: 1.0 is far outside the tolerance) *)
        (match proof.Proof.verdict with
        | Some (Proof.Optimal { assignment; _ }) ->
          check_rejected ~costs "claimed optimum lowered" net
            {
              proof with
              Proof.verdict =
                Some (Proof.Optimal { cost = claimed -. 1.0; assignment });
            }
        | _ -> ());
        (* corrupt one incumbent's recorded cost *)
        let corrupted = ref false in
        let steps =
          List.map
            (function
              | Proof.Inc { comp; lits; cost } when not !corrupted ->
                corrupted := true;
                Proof.Inc { comp; lits; cost = cost +. 1.0 }
              | s -> s)
            proof.Proof.steps
        in
        if !corrupted then
          check_rejected ~costs "corrupted incumbent cost" net
            { proof with Proof.steps };
        (* drop the final (cheapest) incumbent: some component's bound
           weakens by at least 1 (integer costs), so either a later
           nogood loses its justification or the bound composition at
           the verdict breaks *)
        let rev = List.rev proof.Proof.steps in
        let rec drop_first_inc = function
          | [] -> []
          | Proof.Inc _ :: tl -> tl
          | s :: tl -> s :: drop_first_inc tl
        in
        let without_best = List.rev (drop_first_inc rev) in
        if List.length without_best < List.length proof.Proof.steps then
          check_rejected ~costs "missing best incumbent" net
            { proof with Proof.steps = without_best }
      | _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* Workload goldens through the Optimizer plumbing                      *)
(* ------------------------------------------------------------------ *)

let capture_proof ?max_checks ?(domains = 1) ?(prune = false) ?objective
    scheme name =
  let spec = Suite.by_name name in
  let proof = ref None in
  let result =
    match
      Optimizer.optimize ~candidates:spec.Spec.candidates ?max_checks
        ~prune_dominated:prune ~domains ?objective
        ~proof:(fun p -> proof := Some p)
        scheme spec.Spec.program
    with
    | sol -> Ok sol
    | exception Optimizer.No_solution msg -> Error msg
  in
  match !proof with
  | None -> Alcotest.failf "%s: no proof emitted" name
  | Some p -> (spec, p, result)

let costs_for spec proof =
  match proof.Proof.verdict with
  | Some (Proof.Optimal _) ->
    let objective =
      Option.bind proof.Proof.header.Proof.objective
        Optimizer.objective_of_label
    in
    Some
      (Optimizer.cost_table ~objective:(Option.get objective)
         spec.Spec.program (Spec.extract spec).Build.network)
  | _ -> None

let alcotest_check ~what spec proof =
  let net = (Spec.extract spec).Build.network in
  match Checker.check ?costs:(costs_for spec proof) net proof with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: rejected: %s" what msg

let test_benchmark_sat_goldens () =
  List.iter
    (fun name ->
      let spec, proof, result =
        capture_proof (Optimizer.Cdl Cdl.default_config) name
      in
      (match result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s unexpectedly unsolved: %s" name msg);
      (match proof.Proof.verdict with
      | Some (Proof.Sat _) -> ()
      | _ -> Alcotest.failf "%s: expected a sat verdict" name);
      alcotest_check ~what:name spec proof)
    [ "med-im04"; "mxm"; "radar"; "shape"; "track" ]

(* The racing portfolio cancels its losers mid-run; only the winner's
   log may reach the certificate, which must still verify. *)
let test_portfolio_golden () =
  let spec, proof, result =
    capture_proof ~domains:2
      (Optimizer.Portfolio Mlo_csp.Portfolio.default_config)
      "radar"
  in
  (match result with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "radar unexpectedly unsolved: %s" msg);
  alcotest_check ~what:"portfolio radar" spec proof

let test_hard_unsat_goldens () =
  List.iter
    (fun name ->
      let spec, proof, result =
        capture_proof (Optimizer.Cdl Cdl.default_config) name
      in
      (match result with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s unexpectedly satisfiable" name);
      (match proof.Proof.verdict with
      | Some Proof.Unsat -> ()
      | _ -> Alcotest.failf "%s: expected an unsat verdict" name);
      alcotest_check ~what:name spec proof)
    [ "hard-150"; "hard-200" ]

let simulated_cycles spec layouts =
  let lookup n = List.assoc_opt n layouts in
  let restructured = Select.restructure spec.Spec.sim_program lookup in
  (Simulate.run restructured ~layouts:lookup).Simulate.counters
    .Hierarchy.cycles

(* The Med-Im04 optimality certificate, end to end: the proof verifies,
   the claimed optimum is the solution's objective value, and the
   certified assignment is the one whose simulation hits the pinned
   1630436-cycle golden (enhanced's golden is 1639362). *)
let test_bnb_optimal_golden () =
  let spec, proof, result =
    capture_proof (Optimizer.Bnb Bnb.default_config) "med-im04"
  in
  let sol =
    match result with
    | Ok sol -> sol
    | Error msg -> Alcotest.failf "med-im04 unexpectedly unsolved: %s" msg
  in
  (match (proof.Proof.verdict, sol.Optimizer.objective_value) with
  | Some (Proof.Optimal { cost; _ }), Some objective ->
    Alcotest.(check bool)
      (Printf.sprintf "claimed optimum %g matches objective %g" cost
         objective)
      true
      (Float.abs (cost -. objective) <= 1e-6 *. Float.max 1.0 objective)
  | _ -> Alcotest.fail "expected an optimal verdict with an objective");
  alcotest_check ~what:"bnb med-im04" spec proof;
  let cycles = simulated_cycles spec sol.Optimizer.layouts in
  Alcotest.(check int) "Med-Im04 certified-optimum cycles" 1630436 cycles

(* Dominance pruning re-indexes domains; the certificate must translate
   everything back and justify each removal (MxM prunes 34 -> 8). *)
let test_pruned_golden () =
  let spec, proof, result =
    capture_proof ~prune:true (Optimizer.Cdl Cdl.default_config) "mxm"
  in
  (match result with
  | Ok sol ->
    (match sol.Optimizer.pruned_values with
    | Some info when Mlo_netgen.Prune.total info > 0 -> ()
    | _ -> Alcotest.fail "expected pruned values on mxm")
  | Error msg -> Alcotest.failf "mxm unexpectedly unsolved: %s" msg);
  let dels =
    List.length
      (List.filter
         (function Proof.Del _ -> true | _ -> false)
         proof.Proof.steps)
  in
  Alcotest.(check bool) "dominance deletions recorded" true (dels > 0);
  alcotest_check ~what:"pruned mxm" spec proof;
  (* and with one deletion's witness corrupted the proof must die *)
  let corrupted = ref false in
  let steps =
    List.map
      (function
        | Proof.Del { var; value; reason = Proof.Dominated _ }
          when not !corrupted ->
          corrupted := true;
          Proof.Del { var; value; reason = Proof.Dominated value }
        | s -> s)
      proof.Proof.steps
  in
  let net = (Spec.extract spec).Build.network in
  match
    Checker.check net { proof with Proof.steps }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "self-dominating deletion accepted"

(* ------------------------------------------------------------------ *)
(* Cancellation and truncation (partial proofs)                         *)
(* ------------------------------------------------------------------ *)

(* A budget killed before any incumbent produces an [Aborted] verdict:
   well-formed, parseable, and cleanly rejected. *)
let test_budget_abort_rejected () =
  let spec, proof, result =
    capture_proof ~max_checks:1 (Optimizer.Bnb Bnb.default_config)
      "med-im04"
  in
  (match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the 1-check budget to abort");
  (match proof.Proof.verdict with
  | Some Proof.Aborted -> ()
  | _ -> Alcotest.fail "expected an aborted verdict");
  let net = (Spec.extract spec).Build.network in
  (match Checker.check net proof with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "aborted certificate accepted");
  (* the same certificate survives the file round trip and is still a
     rejection, not a parse crash *)
  let file = Filename.temp_file "layoutopt_verify" ".jsonl" in
  Proof.write file proof;
  (match Proof.read file with
  | Error msg -> Alcotest.failf "aborted proof unreadable: %s" msg
  | Ok p -> (
    match Checker.check net p with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "aborted certificate accepted after reread"));
  Sys.remove file

(* A bnb search the check budget cuts short after it found an incumbent
   returns that incumbent as an anytime answer.  Its certificate claims
   only satisfiability: the deletions and the assignment, no nogood or
   incumbent step that leans on an unproven bound.  hard-36's full
   search needs 321 checks, so 150 (incumbent 91332) and 280 (the
   optimum 91304, not yet proven) are both interrupted. *)
let test_interrupted_bnb_certified_sat () =
  let run max_checks =
    let spec, proof, result =
      capture_proof ~max_checks (Optimizer.Bnb Bnb.default_config) "hard-36"
    in
    let sol =
      match result with
      | Ok sol -> sol
      | Error msg -> Alcotest.failf "hard-36 at %d: %s" max_checks msg
    in
    alcotest_check ~what:(Printf.sprintf "hard-36 at %d" max_checks) spec proof;
    (proof, sol)
  in
  List.iter
    (fun (max_checks, objective) ->
      let proof, sol = run max_checks in
      (match proof.Proof.verdict with
      | Some (Proof.Sat _) -> ()
      | _ -> Alcotest.failf "hard-36 at %d: expected a sat verdict" max_checks);
      Alcotest.(check bool)
        (Printf.sprintf "hard-36 at %d: deletions only" max_checks)
        true
        (List.for_all (function Proof.Del _ -> true | _ -> false)
           proof.Proof.steps);
      Alcotest.(check int)
        (Printf.sprintf "hard-36 at %d: interrupted" max_checks)
        1 (Option.get sol.Optimizer.solver_stats).Mlo_csp.Stats.interrupted;
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "hard-36 at %d: anytime objective" max_checks)
        (Some objective) sol.Optimizer.objective_value)
    [ (150, 91332.0); (280, 91304.0) ];
  let proof, sol = run 321 in
  (match proof.Proof.verdict with
  | Some (Proof.Optimal { cost; _ }) ->
    Alcotest.(check (float 0.0)) "hard-36 at 321: optimum" 91304.0 cost
  | _ -> Alcotest.fail "hard-36 at 321: expected an optimal verdict");
  Alcotest.(check int) "hard-36 at 321: not interrupted" 0
    (Option.get sol.Optimizer.solver_stats).Mlo_csp.Stats.interrupted

(* A multi-component bnb run whose budget dies in a later component
   keeps no incumbent of the earlier ones: the certificate is rejected
   for its verdict, not for a stray step. *)
let test_multi_component_abort_message () =
  let spec, proof, result =
    capture_proof ~max_checks:221 (Optimizer.Bnb Bnb.default_config)
      "scale-100"
  in
  (match result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the 221-check budget to abort");
  Alcotest.(check bool) "no incumbent steps" false
    (List.exists (function Proof.Inc _ -> true | _ -> false) proof.Proof.steps);
  match Checker.check (Spec.extract spec).Build.network proof with
  | Error msg ->
    Alcotest.(check string) "rejection" "aborted run carries no certificate" msg
  | Ok () -> Alcotest.fail "aborted certificate accepted"

(* Resolved against the test binary's own location, as in test_bnb. *)
let layoutopt =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/layoutopt.exe"

(* [layoutopt verify] rebuilds an [Optimal] proof's cost table for the
   objective its header names; a missing or unknown name is a rejection
   (one line, exit 1), never a silent fallback to another objective. *)
let test_unknown_objective_rejected () =
  let _, proof, _ =
    capture_proof ~objective:Optimizer.Distinct_lines
      (Optimizer.Bnb Bnb.default_config) "med-im04"
  in
  let verify objective =
    let file = Filename.temp_file "layoutopt_verify" ".jsonl" in
    let out = Filename.temp_file "layoutopt_verify" ".out" in
    Proof.write file
      {
        proof with
        Proof.header =
          { proof.Proof.header with Proof.workload = "med-im04"; objective };
      };
    let code =
      Sys.command
        (Printf.sprintf "%s verify %s >%s 2>&1" layoutopt (Filename.quote file)
           (Filename.quote out))
    in
    let lines = In_channel.with_open_text out In_channel.input_lines in
    Sys.remove file;
    Sys.remove out;
    (code, lines)
  in
  (match verify (Some "lines") with
  | 0, _ -> ()
  | code, lines ->
    Alcotest.failf "lines certificate: exit %d: %s" code
      (String.concat " / " lines));
  List.iter
    (fun (objective, got) ->
      let suffix =
        Printf.sprintf
          ": optimality certificate names no known objective (got %s; valid \
           objectives: misses, lines)"
          got
      in
      match verify objective with
      | 1, [ line ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%S ends with %S" line suffix)
          true
          (String.ends_with ~suffix line)
      | code, lines ->
        Alcotest.failf "%s: expected one line and exit 1, got exit %d: %s" got
          code (String.concat " / " lines))
    [ (Some "bogus", "'bogus'"); (None, "none") ]

(* Truncating the file mid-write (losing the verdict line) must parse to
   a verdict-less proof that the checker rejects with a clear message. *)
let test_truncated_rejected () =
  let net = random_network 7 in
  let proof, _ = certify_cdl net in
  let lines = Proof.to_lines proof in
  let truncated = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  match Proof.of_lines truncated with
  | Error msg -> Alcotest.failf "truncated proof unreadable: %s" msg
  | Ok p -> (
    (match p.Proof.verdict with
    | None -> ()
    | Some _ -> Alcotest.fail "truncation did not drop the verdict");
    match Checker.check net p with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "verdict-less certificate accepted")

(* ------------------------------------------------------------------ *)
(* Unsat-core verification (Netcheck / Explain routing)                 *)
(* ------------------------------------------------------------------ *)

let test_core_verified () =
  let hits = ref 0 in
  for seed = 0 to 199 do
    let net = random_network seed in
    let report = Netcheck.analyze net in
    match (report.Netcheck.unsat_core, report.Netcheck.core_verified) with
    | Some _, Some true ->
      incr hits;
      (match Explain.explain_unsat net with
      | Some u ->
        Alcotest.(check bool)
          (Printf.sprintf "explain core verified (seed %d)" seed)
          true u.Explain.core_verified
      | None -> Alcotest.failf "seed %d: analyze wiped but explain did not"
                  seed)
    | Some _, Some false ->
      Alcotest.failf "seed %d: minimal unsat core failed verification" seed
    | Some _, None ->
      Alcotest.failf "seed %d: unsat core without verification result" seed
    | None, Some _ ->
      Alcotest.failf "seed %d: verification result without a core" seed
    | None, None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough AC-refutable instances (%d)" !hits)
    true (!hits >= 5)

let () =
  Alcotest.run "verify"
    [
      ( "completeness",
        [
          QCheck_alcotest.to_alcotest prop_cdl_certificates;
          QCheck_alcotest.to_alcotest prop_cdl_forgetful_certificates;
          QCheck_alcotest.to_alcotest prop_bnb_certificates;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_mutations_rejected;
          QCheck_alcotest.to_alcotest prop_bnb_mutations_rejected;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "five benchmarks (cdl, sat)" `Slow
            test_benchmark_sat_goldens;
          Alcotest.test_case "portfolio winner-only log" `Slow
            test_portfolio_golden;
          Alcotest.test_case "hard-150/hard-200 (cdl, unsat)" `Slow
            test_hard_unsat_goldens;
          Alcotest.test_case "med-im04 bnb optimum" `Slow
            test_bnb_optimal_golden;
          Alcotest.test_case "dominance-pruned mxm" `Slow test_pruned_golden;
        ] );
      ( "partial",
        [
          Alcotest.test_case "budget abort rejected" `Quick
            test_budget_abort_rejected;
          Alcotest.test_case "truncated proof rejected" `Quick
            test_truncated_rejected;
          Alcotest.test_case "interrupted bnb certified sat" `Quick
            test_interrupted_bnb_certified_sat;
          Alcotest.test_case "multi-component abort message" `Quick
            test_multi_component_abort_message;
          Alcotest.test_case "unknown objective rejected" `Quick
            test_unknown_objective_rejected;
        ] );
      ( "unsat-core",
        [ Alcotest.test_case "cores verify independently" `Quick
            test_core_verified ]
      );
    ]
