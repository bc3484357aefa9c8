(* Oracle tests for the Presburger engine and the exact dependence
   analyzer: brute-force enumeration of small bounded systems and
   iteration spaces against the engine's verdicts — the same harness
   discipline as test_bnb.ml. *)

module P = Mlo_ir.Presburger
module Dependence = Mlo_ir.Dependence
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Affine = Mlo_ir.Affine
module Program = Mlo_ir.Program
module Rng = Mlo_csp.Rng
module Suite = Mlo_workloads.Suite
module Spec = Mlo_workloads.Spec
module Optimizer = Mlo_core.Optimizer
module Random_program = Mlo_workloads.Random_program
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select

(* ------------------------------------------------------------------ *)
(* Engine unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_equality_gcd () =
  (* 2x + 4y = 5: even = odd, refuted during normalization *)
  let sys = P.make ~nvars:2 [ P.eq [| 2; 4 |] (-5) ] in
  Alcotest.(check bool) "2x+4y=5 infeasible" false (P.feasible sys);
  (* 3x + 5y = 1 is solvable (x=2, y=-1), even inside a small box *)
  let sys =
    P.make ~nvars:2
      (P.eq [| 3; 5 |] (-1)
      :: (P.between ~nvars:2 0 ~lo:(-4) ~hi:4
         @ P.between ~nvars:2 1 ~lo:(-4) ~hi:4))
  in
  Alcotest.(check bool) "3x+5y=1 feasible" true (P.feasible sys)

let test_integer_tightening () =
  (* 3 <= 2x <= 3 has the rational solution x = 3/2 and no integer one;
     gcd normalization with constant flooring refutes it outright *)
  let sys = P.make ~nvars:1 [ P.geq [| 2 |] (-3); P.leq [| 2 |] (-3) ] in
  Alcotest.(check bool) "3 <= 2x <= 3 infeasible" false (P.feasible sys);
  let sys = P.make ~nvars:1 [ P.geq [| 2 |] (-3); P.leq [| 2 |] (-4) ] in
  Alcotest.(check bool) "3 <= 2x <= 4 feasible" true (P.feasible sys)

let test_dark_shadow_splinter () =
  (* Pugh's classic: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4 is
     real-feasible but has no integer point; the dark shadow fails and
     only splintering can refute it *)
  P.reset_stats ();
  let sys =
    P.make ~nvars:2
      [
        P.geq [| 11; 13 |] (-27);
        P.leq [| 11; 13 |] (-45);
        P.geq [| 7; -9 |] 10;
        P.leq [| 7; -9 |] (-4);
      ]
  in
  Alcotest.(check bool) "pugh system infeasible" false (P.feasible sys);
  Alcotest.(check bool) "splintering exercised" true ((P.stats ()).P.splits > 0);
  Alcotest.(check bool) "split depth recorded" true
    ((P.stats ()).P.max_split_depth >= 1);
  (* dropping the second band leaves integer points (e.g. x=1, y=2) *)
  let sys =
    P.make ~nvars:2 [ P.geq [| 11; 13 |] (-27); P.leq [| 11; 13 |] (-45) ]
  in
  Alcotest.(check bool) "single band feasible" true (P.feasible sys)

let test_range () =
  (* x + y = 5 over [0,4]^2: x ranges over [1,4], x - y over [-3,3] *)
  let sys =
    P.make ~nvars:2
      (P.eq [| 1; 1 |] (-5)
      :: (P.between ~nvars:2 0 ~lo:0 ~hi:4 @ P.between ~nvars:2 1 ~lo:0 ~hi:4))
  in
  (match P.range sys ~coeffs:[| 1; 0 |] ~lo:(-10) ~hi:10 with
  | Some (1, 4) -> ()
  | Some (a, b) -> Alcotest.failf "x range: expected (1,4), got (%d,%d)" a b
  | None -> Alcotest.fail "x range: expected feasible");
  (match P.range sys ~coeffs:[| 1; -1 |] ~lo:(-10) ~hi:10 with
  | Some (-3, 3) -> ()
  | Some (a, b) -> Alcotest.failf "x-y range: expected (-3,3), got (%d,%d)" a b
  | None -> Alcotest.fail "x-y range: expected feasible");
  let empty = P.add sys [ P.geq [| 1; 0 |] (-9) ] in
  Alcotest.(check bool) "range of infeasible is None" true
    (P.range empty ~coeffs:[| 1; 0 |] ~lo:(-10) ~hi:10 = None)

(* ------------------------------------------------------------------ *)
(* qcheck oracle: random bounded systems vs brute enumeration           *)
(* ------------------------------------------------------------------ *)

type rsys = {
  nvars : int;
  boxes : (int * int) array; (* inclusive *)
  extras : (bool * int array * int) list; (* is_eq, coeffs, const *)
  form : int array; (* objective form for the range oracle *)
}

let gen_sys =
  QCheck.map
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let nvars = 1 + Rng.int rng 3 in
      let boxes =
        Array.init nvars (fun _ ->
            let lo = Rng.int rng 4 - 3 in
            (lo, lo + Rng.int rng 5))
      in
      let extras =
        List.init (Rng.int rng 4) (fun _ ->
            ( Rng.int rng 3 = 0,
              Array.init nvars (fun _ -> Rng.int rng 7 - 3),
              Rng.int rng 13 - 6 ))
      in
      let form = Array.init nvars (fun _ -> Rng.int rng 7 - 3) in
      { nvars; boxes; extras; form })
    QCheck.small_nat

let to_system s =
  let cs = ref [] in
  Array.iteri
    (fun i (lo, hi) -> cs := P.between ~nvars:s.nvars i ~lo ~hi @ !cs)
    s.boxes;
  List.iter
    (fun (is_eq, c, k) ->
      cs := (if is_eq then P.eq c k else P.geq c k) :: !cs)
    s.extras;
  P.make ~nvars:s.nvars !cs

(* Call [f] on every integer point of the box satisfying the extras. *)
let brute_iter s f =
  let x = Array.make s.nvars 0 in
  let dot c = Array.fold_left ( + ) 0 (Array.mapi (fun i ci -> ci * x.(i)) c) in
  let ok () =
    List.for_all
      (fun (is_eq, c, k) ->
        let v = dot c + k in
        if is_eq then v = 0 else v >= 0)
      s.extras
  in
  let rec go i =
    if i = s.nvars then (if ok () then f x)
    else
      let lo, hi = s.boxes.(i) in
      for v = lo to hi do
        x.(i) <- v;
        go (i + 1)
      done
  in
  go 0

let brute_feasible s =
  let found = ref false in
  brute_iter s (fun _ -> found := true);
  !found

let prop_feasibility_oracle =
  QCheck.Test.make
    ~name:"feasibility agrees with brute-force enumeration" ~count:320 gen_sys
    (fun s -> P.feasible (to_system s) = brute_feasible s)

let prop_range_oracle =
  QCheck.Test.make ~name:"range agrees with brute-force extrema" ~count:200
    gen_sys (fun s ->
      let mn = ref max_int and mx = ref min_int in
      brute_iter s (fun x ->
          let v =
            Array.fold_left ( + ) 0 (Array.mapi (fun i c -> c * x.(i)) s.form)
          in
          if v < !mn then mn := v;
          if v > !mx then mx := v);
      (* outer bounds from interval arithmetic over the box *)
      let olo = ref 0 and ohi = ref 0 in
      Array.iteri
        (fun i c ->
          let lo, hi = s.boxes.(i) in
          if c > 0 then (olo := !olo + (c * lo); ohi := !ohi + (c * hi))
          else (olo := !olo + (c * hi); ohi := !ohi + (c * lo)))
        s.form;
      match P.range (to_system s) ~coeffs:s.form ~lo:!olo ~hi:!ohi with
      | None -> !mn > !mx (* brute found nothing either *)
      | Some (a, b) -> a = !mn && b = !mx)

(* ------------------------------------------------------------------ *)
(* qcheck oracle: dependence analysis vs brute-force execution          *)
(* ------------------------------------------------------------------ *)

(* Random small nests with an arbitrary (possibly non-uniform, possibly
   singular) write/read or write/write pair on one array. *)
let gen_nest =
  QCheck.map
    (fun seed ->
      let rng = Rng.create (seed + 31) in
      let depth = 2 + Rng.int rng 2 in
      let dims = 1 + Rng.int rng 2 in
      let loops =
        List.init depth (fun l ->
            {
              Loop_nest.var = Printf.sprintf "i%d" l;
              lo = 0;
              hi = 2 + Rng.int rng 3;
            })
      in
      let expr () =
        Affine.make (List.init depth (fun _ -> Rng.int rng 5 - 2)) (Rng.int rng 5 - 2)
      in
      let access mk = mk "A" (List.init dims (fun _ -> expr ())) in
      let w = access Access.write in
      let o =
        if Rng.int rng 4 = 0 then access Access.write else access Access.read
      in
      Loop_nest.make ~name:"rnd" loops [ w; o ])
    QCheck.small_nat

let iteration_vectors nest =
  let acc = ref [] in
  Loop_nest.iter nest (fun iv -> acc := Array.copy iv :: !acc);
  List.rev !acc

let lex_sign v =
  let rec go i =
    if i >= Array.length v then 0
    else if v.(i) > 0 then 1
    else if v.(i) < 0 then -1
    else go (i + 1)
  in
  go 0

(* Realized normalized distances between accesses [i] and [j]: every
   I <> I' touching the same element contributes |I' - I| with the lex
   sign flipped positive. *)
let realized nest i j =
  let accs = Loop_nest.accesses nest in
  let ivs = iteration_vectors nest in
  let out = ref [] in
  List.iter
    (fun iv ->
      List.iter
        (fun iv' ->
          if iv <> iv'
             && Access.element_at accs.(i) iv = Access.element_at accs.(j) iv'
          then begin
            let d = Array.init (Array.length iv) (fun l -> iv'.(l) - iv.(l)) in
            let d = if lex_sign d < 0 then Array.map (fun x -> -x) d else d in
            if not (List.mem d !out) then out := d :: !out
          end)
        ivs)
    ivs;
  !out

let dep_covers dep delta =
  match dep with
  | Dependence.Distance v -> v = delta
  | Dependence.Direction dirs ->
      Array.length dirs = Array.length delta
      && Array.for_all2
           (fun dir dl ->
             match dir with
             | Dependence.Lt -> dl >= 1
             | Dependence.Eq -> dl = 0
             | Dependence.Gt -> dl <= -1)
           dirs delta

let prop_deps_oracle =
  QCheck.Test.make
    ~name:"pair deps summarize exactly the realized distance set" ~count:250
    gen_nest (fun nest ->
      List.for_all
        (fun (i, j, ds) ->
          let r = realized nest i j in
          (* complete: every realized distance is covered by some dep *)
          List.for_all
            (fun delta -> List.exists (fun d -> dep_covers d delta) ds)
            r
          (* sound: every dep is witnessed by a realized distance and is
             normalized (first non-Eq component is Lt) *)
          && List.for_all
               (fun d ->
                 (match d with
                 | Dependence.Distance v -> List.mem v r
                 | Dependence.Direction dirs ->
                     (match
                        Array.to_list dirs
                        |> List.find_opt (fun x -> x <> Dependence.Eq)
                      with
                     | Some Dependence.Lt -> true
                     | _ -> false)
                     && List.exists (fun delta -> dep_covers d delta) r)
                 [@warning "-4"])
               ds
          && (ds = []) = (r = []))
        (Dependence.pair_deps nest))

let prop_legality_oracle =
  QCheck.Test.make
    ~name:"legal_permutation agrees with brute execution reordering"
    ~count:200 gen_nest (fun nest ->
      let accs = Loop_nest.accesses nest in
      let n = Array.length accs in
      let ivs = iteration_vectors nest in
      (* ordered conflicting access pairs (same array, >= one write) *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Access.is_write accs.(i) || Access.is_write accs.(j) then
            pairs := (accs.(i), accs.(j)) :: !pairs
        done
      done;
      let apply perm iv = Array.init (Array.length perm) (fun p -> iv.(perm.(p))) in
      (* A reorder is legal iff every same-element pair executed in a
         strict source order stays in that order afterwards. *)
      let brute_legal perm =
        List.for_all
          (fun (a1, a2) ->
            List.for_all
              (fun iv ->
                List.for_all
                  (fun iv' ->
                    (not
                       (compare iv iv' < 0
                       && Access.element_at a1 iv = Access.element_at a2 iv'))
                    || compare (apply perm iv) (apply perm iv') < 0)
                  ivs)
              ivs)
          !pairs
      in
      List.for_all
        (fun (p, _) -> Dependence.legal_permutation nest p = brute_legal p)
        (Loop_nest.permutations nest))

(* ------------------------------------------------------------------ *)
(* Suite goldens: legal-order counts and end-to-end objective           *)
(* ------------------------------------------------------------------ *)

let legal_orders spec =
  Array.fold_left
    (fun acc nest -> acc + List.length (Dependence.legal_permutations nest))
    0
    (Program.nests spec.Spec.program)

let test_suite_legal_order_goldens () =
  (* GCD-era baseline, recorded before the rewrite: med-im04 240,
     mxm 18, radar 798, shape 1124, track 940 — all already maximal
     (every order legal), so exactness must keep them intact. *)
  List.iter2
    (fun spec expect ->
      Alcotest.(check int) spec.Spec.name expect (legal_orders spec))
    (Suite.all ())
    [ 240; 18; 798; 1124; 940 ]

let test_scale_gains_legal_orders () =
  (* The scale family's windowed-update nests (store Q[i+b][j], load
     Q[i][j+1]) carry the uniform distance (b, -1), which exceeds the
     i-trip count: the GCD-era analyzer reported it as an Exact
     dependence and rejected the interchange (1 legal order); the
     bounded system proves independence (2 legal orders). *)
  let spec = Suite.by_name "scale-10" in
  let nests = Program.nests spec.Spec.program in
  let shifted =
    Array.to_list nests
    |> List.filter (fun n ->
           let name = Loop_nest.name n in
           String.length name >= 5 && String.sub name 0 5 = "shift")
  in
  Alcotest.(check bool) "shift nests present" true (shifted <> []);
  List.iter
    (fun nest ->
      Alcotest.(check int) "proved independent" 0
        (List.length (Dependence.deps nest));
      Alcotest.(check int) "both orders legal (GCD era pinned to 1)" 2
        (List.length (Dependence.legal_permutations nest)))
    shifted;
  (* whole-family golden: 11 classic nests x 2 + shift nests x 2 *)
  Alcotest.(check int) "scale-10 legal orders" 24 (legal_orders spec)

let test_objective_never_worse () =
  (* End-to-end branch-and-bound objective on the five benchmarks must
     never regress past the GCD-era optima (legal-order sets only
     grow): med-im04 26132, mxm 67536, radar 97672, shape 136978,
     track 102167. *)
  List.iter2
    (fun spec bound ->
      let sol =
        Optimizer.optimize ~candidates:spec.Spec.candidates
          (Optimizer.Bnb Mlo_csp.Bnb.default_config)
          spec.Spec.program
      in
      match sol.Optimizer.objective_value with
      | Some v ->
          if v > bound +. 1e-6 then
            Alcotest.failf "%s: objective %.1f worse than GCD-era %.1f"
              spec.Spec.name v bound
      | None -> Alcotest.fail "bnb must report an objective")
    (Suite.all ())
    [ 26132.; 67536.; 97672.; 136978.; 102167. ]

(* ------------------------------------------------------------------ *)
(* Staged legal orders: one dependence pass per program                 *)
(* ------------------------------------------------------------------ *)

let copy prog =
  Program.make ~name:(Program.name prog)
    (Array.to_list (Program.arrays prog))
    (Array.to_list (Program.nests prog))

let checks () = (P.stats ()).P.checks

let unstaged_orders prog =
  Array.map
    (fun n -> List.map fst (Dependence.legal_permutations n))
    (Program.nests prog)

(* the same filter over [deps], whose leaves carry exact distances *)
let orders_by_distances prog =
  Array.map
    (fun n -> List.filter (Dependence.legal_permutation n) (Loop_nest.orders n))
    (Program.nests prog)

let prop_staged_orders =
  QCheck.Test.make
    ~name:"staged orders = legal_permutations = distance filter, staged once"
    ~count:40 (QCheck.int_range 0 10_000) (fun seed ->
      let prog =
        Random_program.generate
          {
            Random_program.default with
            name = Printf.sprintf "orders%d" seed;
            seed;
            num_nests = 6;
            extent = 12;
            nest_depth = 2 + (seed mod 2);
            conflict_percent = 60;
          }
      in
      let staged = Program.legal_orders prog in
      let c0 = checks () in
      let again = Program.legal_orders prog in
      let restaged = checks () - c0 in
      staged = unstaged_orders prog
      && staged = orders_by_distances prog
      && again = staged && restaged = 0)

let test_staged_orders_two_domains () =
  let spec = Suite.by_name "med-im04" in
  let prog = copy spec.Spec.program in
  let workers =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Program.legal_orders prog))
  in
  match List.map Domain.join workers with
  | [ a; b ] ->
    Alcotest.(check bool) "both Domains see the same orders" true (a = b);
    Alcotest.(check bool) "the orders legal_permutations gives" true
      (a = unstaged_orders prog);
    Alcotest.(check bool) "later readers see them too" true
      (Program.legal_orders prog = a)
  | _ -> assert false

let test_one_pass_per_request () =
  let spec = Suite.by_name "med-im04" in
  let pass =
    let prog = copy spec.Spec.program in
    let c0 = checks () in
    ignore (Program.legal_orders prog);
    checks () - c0
  in
  (* direction leaves only; probing each leaf's distances as well, as
     [Dependence.deps] does, takes 1,584 *)
  Alcotest.(check int) "one legal-orders pass over Med-Im04" 840 pass;
  (* a fresh program, as a request resolves one: solve with a
     certificate, rebuild the network as the verifier does, restructure *)
  let prog = copy spec.Spec.program in
  let c0 = checks () in
  let sol =
    Optimizer.optimize ~candidates:spec.Spec.candidates
      ~proof:(fun _ -> ())
      (Optimizer.Bnb Mlo_csp.Bnb.default_config)
      prog
  in
  ignore (Build.build ~candidates:spec.Spec.candidates prog);
  ignore (Select.restructure prog (Optimizer.lookup sol));
  Alcotest.(check int) "the whole request pays one pass" pass (checks () - c0)

(* ------------------------------------------------------------------ *)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_feasibility_oracle;
      prop_range_oracle;
      prop_deps_oracle;
      prop_legality_oracle;
      prop_staged_orders;
    ]

let () =
  Alcotest.run "presburger"
    [
      ( "engine",
        [
          Alcotest.test_case "equality gcd refutation" `Quick test_equality_gcd;
          Alcotest.test_case "integer tightening" `Quick test_integer_tightening;
          Alcotest.test_case "dark shadow and splintering" `Quick
            test_dark_shadow_splinter;
          Alcotest.test_case "range extrema" `Quick test_range;
        ] );
      ("oracles", props);
      ( "goldens",
        [
          Alcotest.test_case "suite legal-order counts" `Quick
            test_suite_legal_order_goldens;
          Alcotest.test_case "scale family gains legal orders" `Quick
            test_scale_gains_legal_orders;
          Alcotest.test_case "objective never worse than GCD era" `Slow
            test_objective_never_worse;
        ] );
      ( "staged",
        [
          Alcotest.test_case "two Domains on first use" `Quick
            test_staged_orders_two_domains;
          Alcotest.test_case "one dependence pass per request" `Quick
            test_one_pass_per_request;
        ] );
    ]
