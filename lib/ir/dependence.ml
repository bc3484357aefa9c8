module Intvec = Mlo_linalg.Intvec
module Intmat = Mlo_linalg.Intmat
module P = Presburger

type direction = Lt | Eq | Gt
type dep = Distance of Intvec.t | Direction of direction array

let direction_char = function Lt -> '<' | Eq -> '=' | Gt -> '>'

let pp_dep ppf d =
  let inner =
    match d with
    | Distance v -> Array.to_list (Array.map string_of_int v)
    | Direction v ->
        Array.to_list (Array.map (fun x -> String.make 1 (direction_char x)) v)
  in
  Format.fprintf ppf "(%s)" (String.concat ", " inner)

let lex_sign v =
  match Intvec.first_nonzero v with
  | None -> 0
  | Some i -> if v.(i) > 0 then 1 else -1

(* ------------------------------------------------------------------ *)
(* The conflict system for a reference pair: variables x_0..x_{d-1} are
   the source iteration I, x_d..x_{2d-1} the sink iteration I'; both
   range over the nest's bounds and the accessed elements coincide:
   F1.I + o1 = F2.I' + o2, one equality per array dimension. *)

let conflict_system nest a1 a2 =
  let loops = Loop_nest.loops nest in
  let d = Array.length loops in
  let nvars = 2 * d in
  let cstrs = ref [] in
  Array.iteri
    (fun j l ->
      let lo = l.Loop_nest.lo and hi = l.Loop_nest.hi - 1 in
      cstrs :=
        P.between ~nvars j ~lo ~hi
        @ P.between ~nvars (d + j) ~lo ~hi
        @ !cstrs)
    loops;
  let m1 = Access.matrix a1 and m2 = Access.matrix a2 in
  let o1 = Access.offset a1 and o2 = Access.offset a2 in
  for r = 0 to Intmat.rows m1 - 1 do
    let c = Array.make nvars 0 in
    for j = 0 to d - 1 do
      c.(j) <- m1.(r).(j);
      c.(d + j) <- -m2.(r).(j)
    done;
    cstrs := P.eq c (o1.(r) - o2.(r)) :: !cstrs
  done;
  P.make ~nvars !cstrs

(* delta_j = x_{d+j} - x_j, the level-j dependence distance. *)
let delta_coeffs nvars d j =
  let c = Array.make nvars 0 in
  c.(d + j) <- 1;
  c.(j) <- -1;
  c

let dir_cstr nvars d j = function
  | Lt -> P.geq (delta_coeffs nvars d j) (-1) (* delta_j >= 1 *)
  | Eq -> P.eq (delta_coeffs nvars d j) 0
  | Gt ->
      let c = delta_coeffs nvars d j in
      P.geq (Array.map (fun x -> -x) c) (-1) (* delta_j <= -1 *)

let flip_dir = function Lt -> Gt | Gt -> Lt | Eq -> Eq

(* Enumerate the Banerjee direction hierarchy: refine each level's [*]
   into Lt/Eq/Gt, pruning infeasible prefixes.  A feasible leaf whose
   first non-Eq level is Gt is the mirror of a forward dependence (sink
   precedes source in program order); it is flipped so every reported
   dep is lexicographically forward.  With [distances], leaves whose
   per-level distance range is a single point collapse to an exact
   [Distance]; without, every leaf stays a [Direction] and no range is
   probed. *)
let pair_deps_for ~distances nest a1 a2 =
  let loops = Loop_nest.loops nest in
  let d = Array.length loops in
  let nvars = 2 * d in
  let base = conflict_system nest a1 a2 in
  if not (P.feasible base) then []
  else begin
    let found = ref [] in
    let emit dep = if not (List.mem dep !found) then found := dep :: !found in
    let leaf sys dirs =
      if not (List.for_all (fun x -> x = Eq) dirs) then begin
        let flipped =
          match List.find_opt (fun x -> x <> Eq) dirs with
          | Some Gt -> true
          | _ -> false
        in
        (* the leaf's distance vector, when every level admits one
           value *)
        let distance () =
          let ranges =
            List.mapi
              (fun j dir ->
                match dir with
                | Eq -> (0, 0)
                | _ -> (
                    let span =
                      loops.(j).Loop_nest.hi - 1 - loops.(j).Loop_nest.lo
                    in
                    match
                      P.range sys ~coeffs:(delta_coeffs nvars d j)
                        ~lo:(-span) ~hi:span
                    with
                    | Some r -> r
                    | None -> assert false (* the leaf is feasible *)))
              dirs
          in
          if List.for_all (fun (a, b) -> a = b) ranges then
            Some (Array.of_list (List.map fst ranges))
          else None
        in
        match if distances then distance () else None with
        | Some v ->
          emit (Distance (if flipped then Array.map (fun x -> -x) v else v))
        | None ->
          let dirs = Array.of_list dirs in
          emit (Direction (if flipped then Array.map flip_dir dirs else dirs))
      end
    in
    let rec go level sys dirs =
      if level = d then leaf sys (List.rev dirs)
      else
        List.iter
          (fun dir ->
            let sys' = P.add sys [ dir_cstr nvars d level dir ] in
            if P.feasible sys' then go (level + 1) sys' (dir :: dirs))
          [ Lt; Eq; Gt ]
    in
    go 0 base [];
    List.rev !found
  end

let pair_deps_with ~distances nest =
  let accs = Loop_nest.accesses nest in
  let n = Array.length accs in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      let a1 = accs.(i) and a2 = accs.(j) in
      if
        String.equal (Access.array_name a1) (Access.array_name a2)
        && (Access.is_write a1 || Access.is_write a2)
        && not (i = j && not (Access.is_write a1))
      then out := (i, j, pair_deps_for ~distances nest a1 a2) :: !out
    done
  done;
  !out

let pair_deps = pair_deps_with ~distances:true

let flatten pairs =
  List.concat_map (fun (i, j, ds) -> List.map (fun d -> (i, j, d)) ds) pairs

let deps nest = flatten (pair_deps nest)

(* ------------------------------------------------------------------ *)
(* Permutation legality. *)

let is_identity perm =
  let ok = ref true in
  Array.iteri (fun i x -> if i <> x then ok := false) perm;
  !ok

let dep_legal perm = function
  | Distance dv ->
      lex_sign (Array.init (Array.length perm) (fun p -> dv.(perm.(p)))) >= 0
  | Direction dirs ->
      let n = Array.length perm in
      let rec scan p =
        p >= n
        ||
        match dirs.(perm.(p)) with
        | Lt -> true
        | Gt -> false
        | Eq -> scan (p + 1)
      in
      scan 0

let legal_permutation nest perm =
  is_identity perm
  || List.for_all (fun (_, _, dep) -> dep_legal perm dep) (deps nest)

(* A leaf's direction vector decides legality exactly as its distance
   would (Lt, Eq, Gt are the distance's signs), so the filter skips the
   range probes that collapse leaves to distances. *)
let legal_orders nest =
  let ds = flatten (pair_deps_with ~distances:false nest) in
  List.filter
    (fun perm ->
      is_identity perm
      || List.for_all (fun (_, _, dep) -> dep_legal perm dep) ds)
    (Loop_nest.orders nest)

let legal_permutations nest =
  List.map (fun perm -> (perm, Loop_nest.permute nest perm)) (legal_orders nest)
