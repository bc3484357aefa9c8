module Program = Mlo_ir.Program
module Cache = Mlo_cachesim.Cache
module Hierarchy = Mlo_cachesim.Hierarchy
module Compiled_trace = Mlo_cachesim.Compiled_trace
module Trace = Mlo_obs.Trace
module Json = Mlo_obs.Json

type reuse_class = Temporal | Spatial | No_reuse

type level = {
  lv_delta : int;
  lv_count : int;
  lv_class : reuse_class;
  lv_realized : bool;
}

type group = {
  g_array : string;
  g_accesses : int list;
  g_levels : level array;
  g_gaps : int array;
  g_lines : float;
  g_misses : float;
  g_exact : bool;
}

type nest = {
  n_name : string;
  n_trips : int;
  n_groups : group list;
  n_lines : float;
  n_misses : float;
  n_exact : bool;
}

type report = {
  r_program : string;
  r_geometry : Cache.geometry;
  r_nests : nest list;
  r_lines : float;
  r_misses : float;
  r_exact : bool;
}

(* ------------------------------------------------------------------ *)
(* Closed-form line counting                                           *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* floor division / non-negative remainder (addresses of out-of-bounds
   programs may go negative; the analysis must not misline them) *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let fmod a b = a - (fdiv a b * b)
let range_lines ~line x s = fdiv (x + s - 1) line - fdiv x line + 1

(* Lines touched by [n] translates (stride [d]) of a set that occupies
   every line its byte range [x, x+s-1] meets.  Requires [d >= s + line]:
   translates are then line-disjoint and the per-translate count depends
   only on the base offset within a line, which is periodic in the
   translate index. *)
let sparse_interval_sum ~line x s d n =
  let r = fmod d line in
  let p = if r = 0 then 1 else line / gcd r line in
  let q = n / p and rem = n mod p in
  let total = ref 0 in
  for i = 0 to min p n - 1 do
    let o = fmod (x + (i * d)) line in
    let cnt = q + if i < rem then 1 else 0 in
    total := !total + (cnt * (((o + s - 1) / line) + 1))
  done;
  !total

type count = {
  cs_lines : float;
  cs_min : int;  (** smallest byte address of the set *)
  cs_span : int;  (** byte extent: max - min + 1 *)
  cs_exact : bool;
}

let cdiv a b = -fdiv (-a) b

(* One stride level over a full line-interval of span [s]: dense strides
   keep the interval, sparse ones are the periodic alignment sum.
   Always exact. *)
let count_single ~line x s (d, n) =
  if d <= s + line - 1 then
    float_of_int (range_lines ~line x ((d * (n - 1)) + s))
  else float_of_int (sparse_interval_sum ~line x s d n)

(* Two sparse strides [d1 <= d2] over a full line-interval of span [s]
   ([d1 >= s + line]): writing [d2 = q*d1 + e] with [|e|] minimal, the
   lattice decomposes into rows [r = i + q*j] at pitch [d1], row [r]
   holding the offsets [e*j] for the j-interval compatible with the two
   trip counts.  When a row's content stays within one pitch the rows
   are sorted intervals and the union is counted row by row, merging
   neighbours that share lines — exact as long as every merged row is
   itself full at line granularity. *)
let two_level ~line x s (d1, n1) (d2, n2) =
  let q = d2 / d1 in
  let q, e =
    let r = d2 - (q * d1) in
    if r * 2 > d1 then (q + 1, r - d1) else (q, r)
  in
  if (abs e * (n2 - 1)) + s > d1 then None
  else begin
    let rmax = n1 - 1 + (q * (n2 - 1)) in
    let total = ref 0.0 and exact = ref true in
    let prev_hi = ref min_int and prev_solid = ref false in
    let byte_min = ref max_int and byte_max = ref min_int in
    for r = 0 to rmax do
      let jlo = max 0 (cdiv (r - (n1 - 1)) q)
      and jhi = min (n2 - 1) (fdiv r q) in
      if jlo <= jhi then begin
        let cnt = jhi - jlo + 1 in
        let base =
          x + (r * d1) + if e >= 0 then e * jlo else e * jhi
        in
        let span = (abs e * (cnt - 1)) + s in
        let solid = cnt = 1 || abs e <= s + line - 1 in
        let lines =
          if e = 0 || cnt = 1 then float_of_int (range_lines ~line base s)
          else count_single ~line base s (abs e, cnt)
        in
        let lo = fdiv base line and hi = fdiv (base + span - 1) line in
        if lo > !prev_hi then total := !total +. lines
        else if solid && !prev_solid then
          total := !total +. float_of_int (max 0 (hi - !prev_hi))
        else begin
          total := !total +. lines;
          exact := false
        end;
        prev_hi := max !prev_hi hi;
        prev_solid := solid;
        byte_min := min !byte_min base;
        byte_max := max !byte_max (base + span - 1)
      end
    done;
    Some
      {
        cs_lines = !total;
        cs_min = !byte_min;
        cs_span = !byte_max - !byte_min + 1;
        cs_exact = !exact;
      }
  end

(* Distinct cache lines of
     { x + g + sum_l k_l * d_l : 0 <= g < gap_span, 0 <= k_l < n_l }
   where the gap offsets leave no line of their range untouched (the
   caller splits wider offset sets into clusters).  Strides are
   normalized positive and sorted; the ascending dense prefix keeps the
   set full at line granularity, the first sparse stride is an exact
   periodic alignment sum, and later strides multiply exactly when they
   are line-aligned and byte-disjoint (sharing at most the one boundary
   line, which translation by whole lines makes uniform).  The one
   inexact case — an unaligned or aliasing stride over a set that
   already has line-level holes — falls back to
   [min (n * lines) (range bound)] with [cs_exact = false]. *)
let count_set ~line x gap_span levels =
  let base = ref x and norm = ref [] in
  List.iter
    (fun (d, n) ->
      if d <> 0 && n > 1 then
        if d < 0 then begin
          base := !base + (d * (n - 1));
          norm := (-d, n) :: !norm
        end
        else norm := (d, n) :: !norm)
    levels;
  let levels = List.sort compare !norm in
  let x = !base in
  (* fold one more stride into an already-counted (non-interval) set:
     line-aligned byte-disjoint translates multiply exactly (translation
     by whole lines preserves the count; at most the boundary line is
     shared), anything else is bounded by the byte range *)
  let fold_stride (lines, span, exact) (d, n) =
    let reach = d * (n - 1) in
    if fmod d line = 0 && d > span then
      let lines =
        if d >= span + line then float_of_int n *. lines
        else
          let share =
            if fdiv (x + span - 1) line = fdiv (x + d) line then n - 1 else 0
          in
          (float_of_int n *. lines) -. float_of_int share
      in
      (lines, reach + span, exact)
    else
      let new_span = reach + span in
      let bound = float_of_int (range_lines ~line x new_span) in
      (Float.min (float_of_int n *. lines) bound, new_span, false)
  in
  let finish (lines, span, exact) =
    { cs_lines = lines; cs_min = x; cs_span = span; cs_exact = exact }
  in
  let rec dense s = function
    | [] -> finish (float_of_int (range_lines ~line x s), s, true)
    | (d, n) :: rest when d <= s + line - 1 -> dense ((d * (n - 1)) + s) rest
    | rem -> sparse s rem
  and sparse s = function
    | [] -> assert false
    | [ (d, n) ] ->
      finish
        ( float_of_int (sparse_interval_sum ~line x s d n),
          (d * (n - 1)) + s,
          true )
    | (d1, n1) :: (d2, n2) :: rest -> (
      match two_level ~line x s (d1, n1) (d2, n2) with
      | Some c when rest = [] -> c
      | Some c ->
        finish
          (List.fold_left fold_stride (c.cs_lines, c.cs_span, c.cs_exact) rest)
      | None ->
        let first = float_of_int (sparse_interval_sum ~line x s d1 n1) in
        finish
          (List.fold_left fold_stride
             (first, (d1 * (n1 - 1)) + s, true)
             ((d2, n2) :: rest)))
  in
  dense gap_span levels

(* ------------------------------------------------------------------ *)
(* Access groups                                                       *)
(* ------------------------------------------------------------------ *)

type raw_group = {
  rg_array : string;
  rg_members : int list;
  rg_deltas : int array;  (** per level, dead levels (count <= 1) zeroed *)
  rg_counts : int array;
  rg_base : int;  (** leader = smallest addr0 *)
  rg_gaps : int array;  (** sorted distinct offsets, first 0 *)
}

(* Group one nest's accesses, given as (index in the nest, form) in
   ascending index order, by (array, delta vector): groups come out in
   order of their first access. *)
let build_groups counts (accesses : (int * Compiled_trace.access_form) array) =
  let tbl = Hashtbl.create 7 in
  let order = ref [] in
  Array.iter
    (fun (k, (a : Compiled_trace.access_form)) ->
      let deltas =
        Array.mapi
          (fun l d -> if counts.(l) <= 1 then 0 else d)
          a.Compiled_trace.form_deltas
      in
      let key = (a.Compiled_trace.form_array, Array.to_list deltas) in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := (k, a.Compiled_trace.form_addr0) :: !cell
      | None ->
        let cell = ref [ (k, a.Compiled_trace.form_addr0) ] in
        Hashtbl.add tbl key cell;
        order := (key, deltas, cell) :: !order)
    accesses;
  List.rev_map
    (fun ((name, _), deltas, cell) ->
      let members = List.rev !cell in
      let base = List.fold_left (fun m (_, a) -> min m a) max_int members in
      let gaps =
        List.sort_uniq compare (List.map (fun (_, a) -> a - base) members)
      in
      {
        rg_array = name;
        rg_members = List.map fst members;
        rg_deltas = deltas;
        rg_counts = counts;
        rg_base = base;
        rg_gaps = Array.of_list gaps;
      })
    !order

let indexed (nf : Compiled_trace.nest_form) =
  Array.mapi (fun k a -> (k, a)) nf.Compiled_trace.form_accesses

(* Fold the group's constant offsets into one lattice level when they
   are all multiples [q*d] of a stride with consecutive quotients within
   the trip count: the union of translates is then exactly the lattice
   with that level's count extended.  Returns the adjusted levels. *)
let absorb_gaps levels gaps =
  if Array.length gaps <= 1 then Some levels
  else
    let candidates = List.sort (fun (a, _) (b, _) -> compare b a) levels in
    let fits (d, n) =
      let d' = abs d in
      d' <> 0
      && Array.for_all (fun g -> g mod d' = 0) gaps
      &&
      let qs = Array.map (fun g -> g / d') gaps in
      let ok = ref true in
      Array.iteri (fun i q -> if i > 0 && q - qs.(i - 1) > n then ok := false) qs;
      !ok
    in
    match List.find_opt fits candidates with
    | None -> None
    | Some (d, n) ->
      let qlast = gaps.(Array.length gaps - 1) / abs d in
      Some
        (List.map
           (fun (d', n') -> if d' = d && n' = n then (d', n' + qlast) else (d', n'))
           levels)

(* Distinct lines of the sub-lattice of [g] restricted to the levels
   [keep] admits (plus the group's offset set). *)
let group_count ~line (g : raw_group) ~keep =
  let levels = ref [] in
  Array.iteri
    (fun l d ->
      if keep l && d <> 0 && g.rg_counts.(l) > 1 then
        levels := (d, g.rg_counts.(l)) :: !levels)
    g.rg_deltas;
  let levels = !levels in
  (* offsets in arithmetic progression (any pair is one) are themselves a
     lattice level, so the union is a multi-level lattice counted by
     [count_set] — exact where its closed forms are *)
  let gaps_as_level () =
    let n = Array.length g.rg_gaps in
    if n < 2 then None
    else begin
      let d = g.rg_gaps.(1) - g.rg_gaps.(0) in
      let ok = ref (d > 0) in
      for i = 2 to n - 1 do
        if g.rg_gaps.(i) - g.rg_gaps.(i - 1) <> d then ok := false
      done;
      if !ok then Some (d, n) else None
    end
  in
  match
    match absorb_gaps levels g.rg_gaps with
    | Some _ as r -> r
    | None -> Option.map (fun lv -> lv :: levels) (gaps_as_level ())
  with
  | Some levels -> count_set ~line g.rg_base 1 levels
  | None ->
    (* split the offsets into clusters that stay full at line
       granularity, count each translate of the lattice, and sum;
       exact only when the cluster ranges are line-disjoint *)
    let clusters = ref [] and first = ref g.rg_gaps.(0) and last = ref g.rg_gaps.(0) in
    Array.iteri
      (fun i gp ->
        if i > 0 then
          if gp - !last <= line then last := gp
          else begin
            clusters := (!first, !last) :: !clusters;
            first := gp;
            last := gp
          end)
      g.rg_gaps;
    clusters := (!first, !last) :: !clusters;
    let counts =
      List.rev_map
        (fun (f, l) -> count_set ~line (g.rg_base + f) (l - f + 1) levels)
        !clusters
    in
    let total = List.fold_left (fun a c -> a +. c.cs_lines) 0.0 counts in
    let exact = List.for_all (fun c -> c.cs_exact) counts in
    let disjoint =
      let rec go = function
        | a :: (b :: _ as rest) ->
          fdiv (a.cs_min + a.cs_span - 1) line < fdiv b.cs_min line && go rest
        | _ -> true
      in
      go counts
    in
    let lo = List.fold_left (fun m c -> min m c.cs_min) max_int counts in
    let hi =
      List.fold_left (fun m c -> max m (c.cs_min + c.cs_span - 1)) min_int counts
    in
    let span = hi - lo + 1 in
    if disjoint then
      { cs_lines = total; cs_min = lo; cs_span = span; cs_exact = exact }
    else
      {
        cs_lines = Float.min total (float_of_int (range_lines ~line lo span));
        cs_min = lo;
        cs_span = span;
        cs_exact = false;
      }

(* Compositional estimate of the cache sets a sub-lattice reaches: dense
   strides sweep contiguous line runs, line-aligned sparse strides visit
   [num_sets / gcd] distinct set residues, unaligned ones spread freely. *)
let sets_estimate ~line ~num_sets (g : raw_group) ~keep =
  let gap_span = g.rg_gaps.(Array.length g.rg_gaps - 1) + 1 in
  let f = ref (max 1 (min num_sets ((gap_span + line - 1) / line))) in
  Array.iteri
    (fun l d ->
      let d = abs d and n = g.rg_counts.(l) in
      if keep l && d <> 0 && n > 1 then begin
        let factor =
          if d < line then ((d * (n - 1)) / line) + 1
          else if fmod d line = 0 then begin
            let ls = d / line mod num_sets in
            if ls = 0 then 1 else min n (num_sets / gcd ls num_sets)
          end
          else min n num_sets
        in
        f := min num_sets (!f * factor)
      end)
    g.rg_deltas;
  !f

(* ------------------------------------------------------------------ *)
(* Per-nest miss estimate                                              *)
(* ------------------------------------------------------------------ *)

let classify ~line d =
  if d = 0 then Temporal else if abs d < line then Spatial else No_reuse

(* A group's [group_count]s by the set of loop levels kept, memoized.
   Levels are numbered as in the unpermuted nest and a keep-set is a
   bitmask of them.  A count depends on its mask only through the live
   levels (nonzero delta, trip count > 1), so the key is the mask
   restricted to those: the realized-reuse check then shares every
   suffix count the inner footprint already paid for, and
   fully-realized groups share their kept count with the cold one.

   One memo serves every loop order of a nest, because a count does not
   depend on the order its levels are listed in — except through
   [absorb_gaps]'s stable tie order between levels of one stride.  A
   group with two live levels of equal delta ([c_tied]) is therefore
   counted on the permuted group, and keyed by order as well. *)
type counter = {
  c_group : raw_group;
  c_live : int;
  c_tied : bool;
  c_memo : (int, count) Hashtbl.t;
}

let in_mask mask l = mask land (1 lsl l) <> 0
let all_levels = -1

let counter (g : raw_group) =
  let live = ref 0 and tied = ref false in
  Array.iteri
    (fun l d ->
      if d <> 0 && g.rg_counts.(l) > 1 then begin
        for l' = 0 to l - 1 do
          if in_mask !live l' && g.rg_deltas.(l') = d then tied := true
        done;
        live := !live lor (1 lsl l)
      end)
    g.rg_deltas;
  { c_group = g; c_live = !live; c_tied = !tied; c_memo = Hashtbl.create 8 }

let permute_group perm (g : raw_group) =
  {
    g with
    rg_deltas = Array.map (fun p -> g.rg_deltas.(p)) perm;
    rg_counts = Array.map (fun p -> g.rg_counts.(p)) perm;
  }

(* [c]'s count with the levels in [mask] kept, under loop order [perm]
   (number [order] of the nest's orders; [perm.(l)] is the original
   level at position [l], outermost first). *)
let count_kept ~line c ~order ~perm mask =
  let live_mask = mask land c.c_live in
  let key =
    if c.c_tied then (order lsl Array.length perm) lor live_mask else live_mask
  in
  match Hashtbl.find_opt c.c_memo key with
  | Some r -> r
  | None ->
    let r =
      if c.c_tied then
        group_count ~line (permute_group perm c.c_group) ~keep:(fun l ->
            in_mask mask perm.(l))
      else group_count ~line c.c_group ~keep:(in_mask mask)
    in
    Hashtbl.add c.c_memo key r;
    r

(* Per position of loop order [perm]: the mask of the original levels
   strictly inside it. *)
let masks_inside perm =
  let depth = Array.length perm in
  let m = Array.make depth 0 in
  for l = depth - 2 downto 0 do
    m.(l) <- m.(l + 1) lor (1 lsl perm.(l + 1))
  done;
  m

(* [c]'s share of the cache-resident footprint (lines) of one execution
   of the subnest strictly inside each position of [perm]. *)
let inner_terms ~line c ~order ~perm ~inside =
  Array.map (fun m -> (count_kept ~line c ~order ~perm m).cs_lines) inside

(* The nest's inner footprint per position: the groups' terms summed in
   group order. *)
let inner_footprint depth (rows : float array array) =
  Array.init depth (fun l ->
      Array.fold_left (fun acc row -> acc +. row.(l)) 0.0 rows)

(* One group's reuse under loop order [perm], given the nest's inner
   footprint [inner]: the reuse a level carries is realized when the
   subnest inside it fits the cache, both by total capacity and by the
   group's own footprint per cache set; each unrealized level multiplies
   the count of the levels that keep theirs.  Returns the levels
   (outermost first), that factor and the miss estimate. *)
let price ~(geometry : Cache.geometry) ~inner c ~order ~perm ~inside =
  let line = geometry.Cache.line_bytes in
  let num_sets = geometry.Cache.size_bytes / (geometry.Cache.assoc * line) in
  let cap_lines = geometry.Cache.size_bytes / line in
  let g = c.c_group in
  let count = count_kept ~line c ~order ~perm in
  let levels =
    Array.mapi
      (fun l o ->
        let d = g.rg_deltas.(o) and n = g.rg_counts.(o) in
        let klass = classify ~line d in
        let realized =
          match klass with
          | No_reuse -> true
          | Temporal | Spatial ->
            n <= 1
            || inner.(l) <= float_of_int cap_lines
               && (count inside.(l)).cs_lines
                  <= float_of_int
                       (geometry.Cache.assoc
                       * sets_estimate ~line ~num_sets g
                           ~keep:(in_mask inside.(l)))
        in
        { lv_delta = d; lv_count = n; lv_class = klass; lv_realized = realized })
      perm
  in
  let factor =
    Array.fold_left
      (fun acc lv ->
        if lv.lv_class <> No_reuse && not lv.lv_realized && lv.lv_count > 1
        then acc *. float_of_int lv.lv_count
        else acc)
      1.0 levels
  in
  let kept = ref 0 in
  Array.iteri
    (fun l lv ->
      if lv.lv_class = No_reuse || lv.lv_realized then
        kept := !kept lor (1 lsl perm.(l)))
    levels;
  let cold = count all_levels in
  (levels, factor, Float.max cold.cs_lines (factor *. (count !kept).cs_lines))

let analyze_nest ~(geometry : Cache.geometry) (nf : Compiled_trace.nest_form) =
  let line = geometry.Cache.line_bytes in
  let depth = Array.length nf.Compiled_trace.form_counts in
  let perm = Array.init depth Fun.id in
  let inside = masks_inside perm in
  let counters =
    List.map counter (build_groups nf.Compiled_trace.form_counts (indexed nf))
  in
  let inner =
    inner_footprint depth
      (Array.of_list
         (List.map
            (fun c -> inner_terms ~line c ~order:0 ~perm ~inside)
            counters))
  in
  (* Two groups of the same array whose byte ranges land on overlapping
     line intervals share lines the per-group counts each claim, so the
     summed distinct-line count is only an upper bound there. *)
  let colds =
    List.map (fun c -> (c, count_kept ~line c ~order:0 ~perm all_levels)) counters
  in
  let overlaps_sibling g c =
    List.exists
      (fun ({ c_group = g'; _ }, c') ->
        g' != g
        && g'.rg_array = g.rg_array
        && fdiv c.cs_min line <= fdiv (c'.cs_min + c'.cs_span - 1) line
        && fdiv c'.cs_min line <= fdiv (c.cs_min + c.cs_span - 1) line)
      colds
  in
  let finished =
    List.map
      (fun (c, cold) ->
        let g = c.c_group in
        let levels, factor, misses =
          price ~geometry ~inner c ~order:0 ~perm ~inside
        in
        {
          g_array = g.rg_array;
          g_accesses = g.rg_members;
          g_levels = levels;
          g_gaps = g.rg_gaps;
          g_lines = cold.cs_lines;
          g_misses = misses;
          g_exact = cold.cs_exact && factor = 1.0 && not (overlaps_sibling g cold);
        })
      colds
  in
  let trips = Array.fold_left ( * ) 1 nf.Compiled_trace.form_counts in
  {
    n_name = nf.Compiled_trace.form_nest;
    n_trips = trips;
    n_groups = finished;
    n_lines = List.fold_left (fun a g -> a +. g.g_lines) 0.0 finished;
    n_misses = List.fold_left (fun a g -> a +. g.g_misses) 0.0 finished;
    n_exact = List.for_all (fun g -> g.g_exact) finished;
  }

(* ------------------------------------------------------------------ *)
(* Cross-nest warm reuse                                               *)
(* ------------------------------------------------------------------ *)

(* One array's touch in one nest, summarized for residency tracking. *)
type touch = {
  t_clock : float;
      (** lines streamed by the program before the touching nest began —
          the worst-case reuse distance includes that nest's own
          traffic *)
  t_lines : float;
  t_min : int;
  t_max : int;
  t_sig : (int * int array * int array) list;  (** base, deltas, gaps *)
  t_exact : bool;
  t_realized : bool;
}

let array_touches ~line nest_groups =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun (rg, g) ->
      let c = group_count ~line rg ~keep:(fun _ -> true) in
      let prev =
        match Hashtbl.find_opt tbl rg.rg_array with
        | Some t -> t
        | None ->
          {
            t_clock = 0.0;
            t_lines = 0.0;
            t_min = max_int;
            t_max = min_int;
            t_sig = [];
            t_exact = true;
            t_realized = true;
          }
      in
      Hashtbl.replace tbl rg.rg_array
        {
          prev with
          t_lines = prev.t_lines +. g.g_lines;
          t_min = min prev.t_min c.cs_min;
          t_max = max prev.t_max (c.cs_min + c.cs_span - 1);
          t_sig = (rg.rg_base, rg.rg_deltas, rg.rg_gaps) :: prev.t_sig;
          t_exact = prev.t_exact && g.g_exact;
          t_realized = prev.t_realized && g.g_misses = g.g_lines;
        })
    nest_groups;
  tbl

(* Credit lines still resident from an earlier nest: if fewer lines than
   the cache holds were streamed since the array was last touched and
   both touches realize all their reuse, its overlap with the previous
   range does not miss again.  Identical access structure keeps the
   credit exact (the whole touch repeats); otherwise only the range
   overlap is credited and the estimate is marked approximate. *)
let warm_credit ~line ~cap_lines nests_groups =
  let resident : (string, touch) Hashtbl.t = Hashtbl.create 17 in
  let clock = ref 0.0 in
  List.map
    (fun (n, groups) ->
      let touches = array_touches ~line groups in
      let clock0 = !clock in
      let credit = ref 0.0 and inexact = ref false in
      Hashtbl.iter
        (fun name now ->
          match Hashtbl.find_opt resident name with
          | Some last
            when last.t_realized && now.t_realized
                 && clock0 -. last.t_clock +. now.t_lines
                    <= float_of_int cap_lines ->
            if
              last.t_exact && now.t_exact
              && List.sort compare last.t_sig = List.sort compare now.t_sig
            then credit := !credit +. now.t_lines
            else begin
              let lo = max last.t_min now.t_min
              and hi = min last.t_max now.t_max in
              if lo <= hi then begin
                let overlap =
                  float_of_int (range_lines ~line lo (hi - lo + 1))
                in
                credit :=
                  !credit +. Float.min overlap (Float.min last.t_lines now.t_lines);
                inexact := true
              end
            end
          | _ -> ())
        touches;
      clock := !clock +. n.n_lines;
      Hashtbl.iter
        (fun name now ->
          Hashtbl.replace resident name { now with t_clock = clock0 })
        touches;
      if !credit > 0.0 then
        {
          n with
          n_misses = Float.max 0.0 (n.n_misses -. !credit);
          n_exact = n.n_exact && not !inexact;
        }
      else n)
    nests_groups

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let default_geometry = Hierarchy.paper_config.Hierarchy.l1

let analyze_forms ~geometry ~program nfs =
  let line = geometry.Cache.line_bytes in
  let cap_lines = geometry.Cache.size_bytes / line in
  let nests =
    Array.to_list nfs
    |> List.map (fun nf ->
           let raw = build_groups nf.Compiled_trace.form_counts (indexed nf) in
           let n = analyze_nest ~geometry nf in
           (n, List.combine raw n.n_groups))
  in
  let nests = warm_credit ~line ~cap_lines nests in
  {
    r_program = program;
    r_geometry = geometry;
    r_nests = nests;
    r_lines = List.fold_left (fun a n -> a +. n.n_lines) 0.0 nests;
    r_misses = List.fold_left (fun a n -> a +. n.n_misses) 0.0 nests;
    r_exact = List.for_all (fun n -> n.n_exact) nests;
  }

let analyze ?(geometry = default_geometry) ?(layouts = fun _ -> None) prog =
  Trace.with_span ~cat:"analysis" "locality"
    ~args:[ ("program", Trace.Str (Program.name prog)) ]
  @@ fun () ->
  let tr = Compiled_trace.compile prog ~layouts in
  analyze_forms ~geometry ~program:(Program.name prog) (Compiled_trace.forms tr)

(* The profiler's staged state plus its query memo.  A profile is a pure
   function of (program, array, layout, metric); programs are immutable
   and dominance pruning asks the same (array, layout) questions every
   time it sees the same program — a long-running optimizer service, or
   the bench harness re-extracting the same spec, re-profiles nothing
   after the first pass.  Entries are keyed by physical program identity
   in an ephemeron table, so a cache entry (which references its program
   through the skeleton) dies with the program.  One mutex per entry
   guards only its tables: staged nests and profiles are computed
   outside it, so queries from worker Domains (a parallel cost table)
   run concurrently.  Two Domains missing on one key both compute it;
   the results are equal and the first insert wins.

   A query re-counts only the queried array's groups.  Relaying out one
   array keeps its base and moves the arrays declared after it by
   multiples of [Address_map]'s 64-byte base alignment, which the
   32-byte L1 line divides: every other group's line counts — its
   inner-footprint terms — are those of the default layout, staged once
   per (nest, legal order). *)
type metric = Misses | Lines

module Profile_key = struct
  type t = string * Mlo_layout.Layout.t * metric

  let equal (a, la, ma) (b, lb, mb) =
    String.equal a b && ma = mb && Mlo_layout.Layout.equal la lb

  let hash (a, l, m) = Hashtbl.hash (a, Mlo_layout.Layout.hash l, m)
end

module Profile_tbl = Hashtbl.Make (Profile_key)

(* One nest's default groups, staged on the first query touching it. *)
type nest_stage = {
  ns_inside : int array array;  (** per legal order: [masks_inside] *)
  ns_arrays : string array;  (** the arrays the nest references *)
  ns_others : float array array array;
      (** per legal order, per array of [ns_arrays]: per position, the
          summed [inner_terms] of the other arrays' default groups *)
}

type profile_entry = {
  pe_skel : Compiled_trace.skeleton;
  pe_map : Mlo_cachesim.Address_map.t;  (** every array at its default layout *)
  pe_forms : Compiled_trace.nest_form array;  (** under [pe_map] *)
  pe_touched : (string, int array) Hashtbl.t;
      (** array name -> indices of the nests referencing it, ascending *)
  pe_stages : nest_stage option array;
  pe_profiles : float array Profile_tbl.t;
      (** per array: one value per nest of its [pe_touched] entry *)
  pe_lock : Mutex.t;
}

module Program_memo = Ephemeron.K1.Make (struct
  type t = Program.t

  let equal = ( == )

  (* not [Hashtbl.hash] of the value: its staged legal orders change it *)
  let hash p = Hashtbl.hash (Program.name p)
end)

let profile_entries : profile_entry Program_memo.t = Program_memo.create 8
let profile_entries_lock = Mutex.create ()

let make_profile_entry prog =
  let nests = Program.nests prog in
  let touched = Hashtbl.create 16 in
  Array.iteri
    (fun i n ->
      Array.iter
        (fun a ->
          let name = Mlo_ir.Access.array_name a in
          match Hashtbl.find_opt touched name with
          | Some (j :: _) when j = i -> () (* nest already recorded *)
          | Some idxs -> Hashtbl.replace touched name (i :: idxs)
          | None -> Hashtbl.replace touched name [ i ])
        (Mlo_ir.Loop_nest.accesses n))
    nests;
  let touched_arr = Hashtbl.create (Hashtbl.length touched) in
  Hashtbl.iter
    (fun name idxs ->
      Hashtbl.replace touched_arr name (Array.of_list (List.rev idxs)))
    touched;
  let skel = Compiled_trace.skeleton prog in
  let none _ = None in
  {
    pe_skel = skel;
    pe_map = Mlo_cachesim.Address_map.build prog ~layouts:none;
    pe_forms =
      Compiled_trace.forms (Compiled_trace.instantiate skel ~layouts:none);
    pe_touched = touched_arr;
    pe_stages = Array.make (Array.length nests) None;
    pe_profiles = Profile_tbl.create 64;
    pe_lock = Mutex.create ();
  }

let profile_entry prog =
  Mutex.protect profile_entries_lock @@ fun () ->
  match Program_memo.find_opt profile_entries prog with
  | Some e -> e
  | None ->
    let e = make_profile_entry prog in
    Program_memo.replace profile_entries prog e;
    e

(* [find] under [lock]; on a miss, [compute] outside it and [add] the
   result unless another Domain added one first. *)
let find_or_add lock ~find ~add compute =
  match Mutex.protect lock find with
  | Some v -> v
  | None -> (
    let v = compute () in
    Mutex.protect lock @@ fun () ->
    match find () with
    | Some first -> first
    | None ->
      add v;
      v)

let profile_line = default_geometry.Cache.line_bytes

(* Nest [i]'s default groups' [inner_terms], per legal order. *)
let default_terms entry i orders =
  let nf = entry.pe_forms.(i) in
  let counters =
    Array.of_list
      (List.map counter
         (build_groups nf.Compiled_trace.form_counts (indexed nf)))
  in
  let inside = Array.map masks_inside orders in
  ( counters,
    inside,
    Array.mapi
      (fun order perm ->
        Array.map
          (fun c ->
            inner_terms ~line:profile_line c ~order ~perm
              ~inside:inside.(order))
          counters)
      orders )

let add_into acc terms = Array.iteri (fun l t -> acc.(l) <- acc.(l) +. t) terms

(* Every term is a line count, an integer-valued float, so these sums
   are exact in any order (while below 2^53; see [staged_terms]): the
   fold [analyze_nest] forms in group order comes out bit for bit. *)
let stage_nest entry i orders =
  let counters, inside, terms = default_terms entry i orders in
  let arrays =
    Array.fold_left
      (fun acc c ->
        if List.mem c.c_group.rg_array acc then acc else c.c_group.rg_array :: acc)
      [] counters
    |> List.rev |> Array.of_list
  in
  let depth = Array.length entry.pe_forms.(i).Compiled_trace.form_counts in
  {
    ns_inside = inside;
    ns_arrays = arrays;
    ns_others =
      Array.map
        (fun per_group ->
          Array.map
            (fun a ->
              let others = Array.make depth 0.0 in
              Array.iteri
                (fun s c ->
                  if not (String.equal c.c_group.rg_array a) then
                    add_into others per_group.(s))
                counters;
              others)
            arrays)
        terms;
  }

let nest_stage entry i orders =
  find_or_add entry.pe_lock
    ~find:(fun () -> entry.pe_stages.(i))
    ~add:(fun st -> entry.pe_stages.(i) <- Some st)
    (fun () -> stage_nest entry i orders)

(* [f order perm], minimized over the loop orders *)
let min_over orders f =
  let best = ref infinity in
  Array.iteri (fun order perm -> best := Float.min !best (f order perm)) orders;
  !best

(* The queried array's cost in nest [i] (legal [orders]), given its
   accesses there under the candidate layout: its groups are built once
   on the unpermuted forms, and under each order the inner footprint
   adds their terms to the other arrays' staged sum. *)
let price_nest entry ~metric ~array_name ~orders i accesses =
  let line = profile_line in
  let counts = entry.pe_forms.(i).Compiled_trace.form_counts in
  let counters =
    Array.of_list (List.map counter (build_groups counts accesses))
  in
  let sum f = Array.fold_left (fun a c -> a +. f c) 0.0 counters in
  match metric with
  | Lines ->
    (* cold counts keep every level, so only tied groups see the order *)
    let lines order perm =
      sum (fun c -> (count_kept ~line c ~order ~perm all_levels).cs_lines)
    in
    if Array.exists (fun c -> c.c_tied) counters then min_over orders lines
    else lines 0 orders.(0)
  | Misses ->
    let st = nest_stage entry i orders in
    let a =
      let rec find k =
        if String.equal st.ns_arrays.(k) array_name then k else find (k + 1)
      in
      find 0
    in
    min_over orders (fun order perm ->
        let inside = st.ns_inside.(order) in
        let inner = Array.copy st.ns_others.(order).(a) in
        Array.iter
          (fun c -> add_into inner (inner_terms ~line c ~order ~perm ~inside))
          counters;
        sum (fun c ->
            let _, _, misses =
              price ~geometry:default_geometry ~inner c ~order ~perm ~inside
            in
            misses))

let profiler ?(metric = Misses) prog =
  let entry = profile_entry prog in
  let orders = Array.map Array.of_list (Program.legal_orders prog) in
  fun ~array_name ~layout ->
    let profile = Array.make (Array.length entry.pe_forms) 0.0 in
    (match Hashtbl.find_opt entry.pe_touched array_name with
    | None -> ()
    | Some idxs ->
      let key = (array_name, layout, metric) in
      let sparse =
        find_or_add entry.pe_lock
          ~find:(fun () -> Profile_tbl.find_opt entry.pe_profiles key)
          ~add:(Profile_tbl.replace entry.pe_profiles key)
          (fun () ->
            let forms =
              Compiled_trace.array_forms entry.pe_skel entry.pe_map array_name
                layout ~nests:idxs
            in
            Array.mapi
              (fun j accesses ->
                price_nest entry ~metric ~array_name ~orders:orders.(idxs.(j))
                  idxs.(j) accesses)
              forms)
      in
      Array.iteri (fun j v -> profile.(idxs.(j)) <- v) sparse);
    profile

let staged_terms prog =
  let entry = profile_entry prog in
  let orders = Program.legal_orders prog in
  List.concat
    (List.init (Array.length orders) (fun i ->
         let _, _, terms = default_terms entry i (Array.of_list orders.(i)) in
         Array.to_list terms))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let class_string = function
  | Temporal -> "t"
  | Spatial -> "s"
  | No_reuse -> "-"

let reuse_string g =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun lv ->
            let c = class_string lv.lv_class in
            if lv.lv_class <> No_reuse && not lv.lv_realized then
              String.uppercase_ascii c
            else c)
          g.g_levels))

let pp ppf r =
  Format.fprintf ppf "@[<v>locality %s (L1 %dB/%d-way/%dB lines)@,"
    r.r_program r.r_geometry.Cache.size_bytes r.r_geometry.Cache.assoc
    r.r_geometry.Cache.line_bytes;
  List.iter
    (fun n ->
      Format.fprintf ppf "  %s: trips=%d lines=%.0f misses=%.0f%s@," n.n_name
        n.n_trips n.n_lines n.n_misses
        (if n.n_exact then "" else " ~");
      List.iter
        (fun g ->
          Format.fprintf ppf "    %-12s reuse=%s group=%d lines=%.0f misses=%.0f%s@,"
            g.g_array (reuse_string g)
            (List.length g.g_accesses)
            g.g_lines g.g_misses
            (if g.g_exact then "" else " ~"))
        n.n_groups)
    r.r_nests;
  Format.fprintf ppf "  total: lines=%.0f misses=%.0f%s@]" r.r_lines r.r_misses
    (if r.r_exact then "" else " ~")

let class_json = function
  | Temporal -> "temporal"
  | Spatial -> "spatial"
  | No_reuse -> "none"

let to_json r =
  let group_json g =
    Json.Obj
      [
        ("array", Json.Str g.g_array);
        ("accesses", Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) g.g_accesses));
        ( "levels",
          Json.Arr
            (Array.to_list
               (Array.map
                  (fun lv ->
                    Json.Obj
                      [
                        ("delta", Json.Num (float_of_int lv.lv_delta));
                        ("count", Json.Num (float_of_int lv.lv_count));
                        ("reuse", Json.Str (class_json lv.lv_class));
                        ("realized", Json.Bool lv.lv_realized);
                      ])
                  g.g_levels)) );
        ( "gaps",
          Json.Arr
            (Array.to_list
               (Array.map (fun g -> Json.Num (float_of_int g)) g.g_gaps)) );
        ("lines", Json.Num g.g_lines);
        ("misses", Json.Num g.g_misses);
        ("exact", Json.Bool g.g_exact);
      ]
  in
  let nest_json n =
    Json.Obj
      [
        ("nest", Json.Str n.n_name);
        ("trips", Json.Num (float_of_int n.n_trips));
        ("groups", Json.Arr (List.map group_json n.n_groups));
        ("lines", Json.Num n.n_lines);
        ("misses", Json.Num n.n_misses);
        ("exact", Json.Bool n.n_exact);
      ]
  in
  Json.Obj
    [
      ("program", Json.Str r.r_program);
      ( "geometry",
        Json.Obj
          [
            ("size_bytes", Json.Num (float_of_int r.r_geometry.Cache.size_bytes));
            ("assoc", Json.Num (float_of_int r.r_geometry.Cache.assoc));
            ("line_bytes", Json.Num (float_of_int r.r_geometry.Cache.line_bytes));
          ] );
      ("nests", Json.Arr (List.map nest_json r.r_nests));
      ("lines", Json.Num r.r_lines);
      ("misses", Json.Num r.r_misses);
      ("exact", Json.Bool r.r_exact);
    ]
