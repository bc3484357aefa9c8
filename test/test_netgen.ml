(* Tests for constraint-network extraction: variants, demands, domains,
   pair construction, wildcards, and loop-order selection. *)

module B = Mlo_ir.Builder
module Program = Mlo_ir.Program
module Array_info = Mlo_ir.Array_info
module Loop_nest = Mlo_ir.Loop_nest
module Layout = Mlo_layout.Layout
module Network = Mlo_csp.Network
module Solver = Mlo_csp.Solver
module Brute = Mlo_csp.Brute
module Weighted = Mlo_csp.Weighted
module Variants = Mlo_netgen.Variants
module Build = Mlo_netgen.Build
module Select = Mlo_netgen.Select
module Kernels = Mlo_workloads.Kernels

let layout = Alcotest.testable Layout.pp Layout.equal

(* The paper's Figure 2 program. *)
let fig2_program ~n =
  let x = B.ctx [ "i1"; "i2" ] in
  let i1 = B.var x "i1" and i2 = B.var x "i2" in
  let nest =
    B.nest "fig2" x [ n; n ]
      B.[ read "Q1" [ i1 +: i2; i2 ]; read "Q2" [ i1 +: i2; i1 ] ]
  in
  Program.make ~name:"fig2"
    [
      Array_info.make "Q1" [ (2 * n) - 1; n ];
      Array_info.make "Q2" [ (2 * n) - 1; n ];
    ]
    [ nest ]

(* ------------------------------------------------------------------ *)
(* Variants                                                             *)
(* ------------------------------------------------------------------ *)

let test_variants_of_fig2 () =
  let prog = fig2_program ~n:8 in
  let nest = (Program.nests prog).(0) in
  let variants = Variants.of_orders nest (Program.legal_orders prog).(0) in
  Alcotest.(check int) "two legal orders" 2 (List.length variants);
  (* identity: Q1 -> diagonal, Q2 -> column-major (paper Section 2) *)
  (match variants with
  | v0 :: v1 :: [] ->
    Alcotest.(check (option layout)) "Q1 identity" (Some Layout.diagonal2)
      (Variants.demanded_layout v0.Variants.nest "Q1");
    Alcotest.(check (option layout)) "Q2 identity" (Some (Layout.col_major 2))
      (Variants.demanded_layout v0.Variants.nest "Q2");
    (* interchanged: Q1 -> column-major, Q2 -> diagonal (paper) *)
    Alcotest.(check (option layout)) "Q1 interchanged" (Some (Layout.col_major 2))
      (Variants.demanded_layout v1.Variants.nest "Q1");
    Alcotest.(check (option layout)) "Q2 interchanged" (Some Layout.diagonal2)
      (Variants.demanded_layout v1.Variants.nest "Q2")
  | _ -> Alcotest.fail "expected 2 variants");
  Alcotest.(check (option layout)) "unknown array" None
    (Variants.demanded_layout nest "Q9")

let test_layouts_for () =
  let prog = fig2_program ~n:8 in
  let nest = (Program.nests prog).(0) in
  match Variants.of_orders nest (Program.legal_orders prog).(0) with
  | v :: _ ->
    let demands = Variants.layouts_for v in
    Alcotest.(check int) "both arrays demanded" 2 (List.length demands);
    Alcotest.(check (option layout)) "Q1" (Some Layout.diagonal2)
      (List.assoc_opt "Q1" demands)
  | [] -> Alcotest.fail "no variants"

(* ------------------------------------------------------------------ *)
(* Build                                                                *)
(* ------------------------------------------------------------------ *)

let test_build_fig2 () =
  let prog = fig2_program ~n:8 in
  let b = Build.build prog in
  let net = b.Build.network in
  Alcotest.(check int) "two variables" 2 (Network.num_vars net);
  Alcotest.(check int) "one constraint" 1 (Network.num_constraints net);
  (* S(Q1,Q2) should allow exactly the two per-variant combinations *)
  let q1 = Build.var_of_array b "Q1" and q2 = Build.var_of_array b "Q2" in
  let allowed_combos =
    List.concat_map
      (fun v1 ->
        List.filter_map
          (fun v2 ->
            if Network.allowed net q1 v1 q2 v2 then
              Some
                ( Layout.describe (Network.value net q1 v1),
                  Layout.describe (Network.value net q2 v2) )
            else None)
          (List.init (Network.domain_size net q2) Fun.id))
      (List.init (Network.domain_size net q1) Fun.id)
  in
  Alcotest.(check int) "two combos" 2 (List.length allowed_combos);
  Alcotest.(check bool) "diag/col" true
    (List.mem ("diagonal", "column-major") allowed_combos);
  Alcotest.(check bool) "col/diag" true
    (List.mem ("column-major", "diagonal") allowed_combos)

let test_build_solution_valid () =
  let prog = fig2_program ~n:8 in
  let b = Build.build prog in
  match Solver.solve b.Build.network with
  | { Solver.outcome = Solver.Solution a; _ } ->
    Alcotest.(check bool) "verifies" true (Network.verify b.Build.network a);
    let layouts = Build.assignment_layouts b a in
    Alcotest.(check int) "all arrays" 2 (List.length layouts);
    (match Build.lookup b a "Q1" with
    | Some _ -> ()
    | None -> Alcotest.fail "Q1 missing");
    Alcotest.(check (option layout)) "unknown" None (Build.lookup b a "Zz")
  | _ -> Alcotest.fail "figure 2 network must be satisfiable"

let test_build_candidates_extend_domains () =
  let prog = fig2_program ~n:8 in
  let plain = Build.build prog in
  let extra = [ Layout.row_major 2; Layout.anti_diagonal2 ] in
  let rich = Build.build ~candidates:(fun _ -> extra) prog in
  Alcotest.(check bool) "domains grow" true
    (Network.total_domain_size rich.Build.network
    > Network.total_domain_size plain.Build.network);
  (* wrong-rank candidates are ignored *)
  let bad = Build.build ~candidates:(fun _ -> [ Layout.row_major 3 ]) prog in
  Alcotest.(check int) "wrong rank ignored"
    (Network.total_domain_size plain.Build.network)
    (Network.total_domain_size bad.Build.network)

let test_build_matmul_satisfiable () =
  (* MxM's network: wildcards for the temporal sides keep it satisfiable
     and A=row-major, B=column-major must be among the solutions *)
  let mm, req = Kernels.matmul ~name:"mm" ~n:8 ~c:"C" ~a:"A" ~b:"B" in
  let prog = Program.make ~name:"mm" (Kernels.declare req) [ mm ] in
  let b = Build.build prog in
  let net = b.Build.network in
  Alcotest.(check bool) "satisfiable" true (Brute.is_satisfiable net);
  let sols = Brute.all_solutions net in
  let has_classic =
    List.exists
      (fun a ->
        Build.lookup b a "A" = Some (Layout.row_major 2)
        && Build.lookup b a "B" = Some (Layout.col_major 2))
      sols
  in
  Alcotest.(check bool) "classic matmul layouts allowed" true has_classic

let test_build_weighted () =
  let prog = fig2_program ~n:8 in
  let b, w = Build.weighted prog in
  let q1 = Build.var_of_array b "Q1" and q2 = Build.var_of_array b "Q2" in
  (* every allowed pair carries the nest cost (8*8 iterations x 2 refs) *)
  let expected = float_of_int (8 * 8 * 2) in
  let found = ref false in
  for v1 = 0 to Network.domain_size b.Build.network q1 - 1 do
    for v2 = 0 to Network.domain_size b.Build.network q2 - 1 do
      if Network.allowed b.Build.network q1 v1 q2 v2 then begin
        found := true;
        Alcotest.(check (float 1e-9)) "pair weight" expected
          (Weighted.weight w q1 v1 q2 v2)
      end
    done
  done;
  Alcotest.(check bool) "some pair" true !found

(* ------------------------------------------------------------------ *)
(* Select                                                               *)
(* ------------------------------------------------------------------ *)

let test_select_best_variant () =
  let prog = fig2_program ~n:8 in
  let nest = (Program.nests prog).(0) in
  let variants = Variants.of_orders nest (Program.legal_orders prog).(0) in
  (* if Q1 is diagonal and Q2 column-major, the original order is best *)
  let lookup1 = function
    | "Q1" -> Some Layout.diagonal2
    | "Q2" -> Some (Layout.col_major 2)
    | _ -> None
  in
  let v = Select.best_variant variants lookup1 in
  Alcotest.(check bool) "identity kept" true (v.Variants.perm = [| 0; 1 |]);
  (* with the swapped layouts, interchange wins *)
  let lookup2 = function
    | "Q1" -> Some (Layout.col_major 2)
    | "Q2" -> Some Layout.diagonal2
    | _ -> None
  in
  let v2 = Select.best_variant variants lookup2 in
  Alcotest.(check bool) "interchanged" true (v2.Variants.perm = [| 1; 0 |])

let test_select_restructure_preserves_semantics () =
  let prog = fig2_program ~n:8 in
  let lookup = function
    | "Q1" -> Some (Layout.col_major 2)
    | "Q2" -> Some Layout.diagonal2
    | _ -> None
  in
  let prog' = Select.restructure prog lookup in
  Alcotest.(check int) "same nest count"
    (Array.length (Program.nests prog))
    (Array.length (Program.nests prog'));
  (* the multiset of elements touched is preserved *)
  let touch p =
    let acc = ref [] in
    Array.iter
      (fun nest ->
        Loop_nest.iter nest (fun iv ->
            Array.iter
              (fun a ->
                acc :=
                  (Mlo_ir.Access.array_name a, Mlo_ir.Access.element_at a iv)
                  :: !acc)
              (Loop_nest.accesses nest)))
      (Program.nests p);
    List.sort compare !acc
  in
  Alcotest.(check bool) "same elements" true (touch prog = touch prog')

(* ------------------------------------------------------------------ *)
(* Properties on the generator                                          *)
(* ------------------------------------------------------------------ *)

let gen_params seed =
  {
    Mlo_workloads.Random_program.default with
    Mlo_workloads.Random_program.seed;
    num_arrays = 5;
    num_nests = 6;
    extent = 12;
    sim_extent = 8;
  }

let prop_generator_network_satisfiable =
  QCheck.Test.make ~name:"generated networks admit the intended solution"
    ~count:60 QCheck.small_nat (fun seed ->
      (* intended layouts for arrays some restructuring demands; arrays
         referenced only temporally fall back to the default (domain
         index 0), which every wildcard admits *)
      let params = gen_params seed in
      let prog = Mlo_workloads.Random_program.generate params in
      let b = Build.build prog in
      let intended = Mlo_workloads.Random_program.intended_layouts params in
      let net = b.Build.network in
      let assignment =
        Array.init (Network.num_vars net) (fun i ->
            let want = List.assoc (Network.name net i) intended in
            let dom = Network.domain net i in
            let rec find v =
              if v >= Array.length dom then 0
              else if Layout.equal dom.(v) want then v
              else find (v + 1)
            in
            find 0)
      in
      Network.verify net assignment)

let prop_generator_deterministic =
  QCheck.Test.make ~name:"generator is deterministic in its seed" ~count:30
    QCheck.small_nat (fun seed ->
      let params = gen_params seed in
      let p1 = Mlo_workloads.Random_program.generate params in
      let p2 = Mlo_workloads.Random_program.generate params in
      Network.total_domain_size (Build.build p1).Build.network
      = Network.total_domain_size (Build.build p2).Build.network
      && Program.data_size_bytes p1 = Program.data_size_bytes p2)

let prop_solver_solves_generated =
  QCheck.Test.make ~name:"enhanced scheme solves generated networks" ~count:40
    QCheck.small_nat (fun seed ->
      let prog = Mlo_workloads.Random_program.generate (gen_params seed) in
      let b = Build.build prog in
      match
        Solver.solve ~config:(Mlo_csp.Schemes.enhanced ()) b.Build.network
      with
      | { Solver.outcome = Solver.Solution a; _ } ->
        Network.verify b.Build.network a
      | _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_generator_network_satisfiable;
      prop_generator_deterministic;
      prop_solver_solves_generated;
    ]

let () =
  Alcotest.run "netgen"
    [
      ( "variants",
        [
          Alcotest.test_case "figure 2 demands" `Quick test_variants_of_fig2;
          Alcotest.test_case "layouts_for" `Quick test_layouts_for;
        ] );
      ( "build",
        [
          Alcotest.test_case "figure 2 network" `Quick test_build_fig2;
          Alcotest.test_case "solution decodes" `Quick test_build_solution_valid;
          Alcotest.test_case "candidate palettes" `Quick
            test_build_candidates_extend_domains;
          Alcotest.test_case "matmul satisfiable via wildcards" `Quick
            test_build_matmul_satisfiable;
          Alcotest.test_case "weighted pairs carry nest cost" `Quick
            test_build_weighted;
        ] );
      ( "select",
        [
          Alcotest.test_case "best variant" `Quick test_select_best_variant;
          Alcotest.test_case "restructure preserves semantics" `Quick
            test_select_restructure_preserves_semantics;
        ] );
      ("properties", props);
    ]
