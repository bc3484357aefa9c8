module Program = Mlo_ir.Program
module Loop_nest = Mlo_ir.Loop_nest
module Access = Mlo_ir.Access
module Transform = Mlo_layout.Transform
module Trace = Mlo_obs.Trace

(* ------------------------------------------------------------------ *)
(* Skeleton: the layout-independent part of a compiled trace            *)
(* ------------------------------------------------------------------ *)

type skel_access = {
  sa_name : string;
  sa_matrix : int array array; (* rank rows x depth cols *)
  sa_offset : int array; (* rank *)
}

type skel_nest = {
  sn_name : string;
  sn_counts : int array; (* per-level trip count, outermost first *)
  sn_lows : int array; (* per-level lower bound *)
  sn_accesses : skel_access array;
}

type skeleton = {
  sk_prog : Program.t;
  sk_nests : skel_nest array;
  sk_trips : int;
}

let skeleton prog =
  let nests =
    Array.map
      (fun nest ->
        let loops = Loop_nest.loops nest in
        {
          sn_name = Loop_nest.name nest;
          sn_counts = Array.map (fun l -> l.Loop_nest.hi - l.Loop_nest.lo) loops;
          sn_lows = Array.map (fun l -> l.Loop_nest.lo) loops;
          sn_accesses =
            Array.map
              (fun a ->
                {
                  sa_name = Access.array_name a;
                  sa_matrix = Access.matrix a;
                  sa_offset = Access.offset a;
                })
              (Loop_nest.accesses nest);
        })
      (Program.nests prog)
  in
  let trips =
    Array.fold_left
      (fun acc n -> acc + Array.fold_left ( * ) 1 n.sn_counts)
      0 nests
  in
  { sk_prog = prog; sk_nests = nests; sk_trips = trips }

(* ------------------------------------------------------------------ *)
(* Compiled trace: affine address streams                               *)
(* ------------------------------------------------------------------ *)

type compiled_nest = {
  counts : int array; (* per-level trip count *)
  addr0 : int array; (* per access, byte address at the nest's lower corner *)
  deltas : int array array; (* deltas.(level).(access): byte increment *)
}

type t = {
  nests : compiled_nest array;
  footprint : int;
  trips : int;
  skel : skeleton; (* kept so the affine forms stay inspectable *)
}

type access_form = {
  form_array : string;
  form_addr0 : int; (* byte address at the nest's lower corner *)
  form_deltas : int array; (* per level, outermost first *)
}

type nest_form = {
  form_nest : string;
  form_counts : int array; (* per-level trip count, outermost first *)
  form_accesses : access_form array;
}

(* One access's affine form for an array at byte [base] with element
   size [elem] under [transform]:
   address(iter) = base + elem * (c0 + sum_j lin_j * (A_j . iter + off_j))
   collapses to addr0 + sum_level delta_level * (iter_level - low_level).
   Returns addr0 and the per-level deltas, outermost first. *)
let fold_access ~base ~elem transform sn sa =
  let depth = Array.length sn.sn_counts in
  let lin, c0 = Transform.linear_map transform in
  let rank = Array.length sa.sa_offset in
  let cell0 = ref c0 in
  for j = 0 to rank - 1 do
    let row = sa.sa_matrix.(j) in
    let v = ref sa.sa_offset.(j) in
    for l = 0 to depth - 1 do
      v := !v + (row.(l) * sn.sn_lows.(l))
    done;
    cell0 := !cell0 + (lin.(j) * !v)
  done;
  let deltas =
    Array.init depth (fun l ->
        let d = ref 0 in
        for j = 0 to rank - 1 do
          d := !d + (lin.(j) * sa.sa_matrix.(j).(l))
        done;
        elem * !d)
  in
  (base + (elem * !cell0), deltas)

let instantiate skel ~layouts =
  Trace.with_span ~cat:"cachesim" "compile-trace" @@ fun () ->
  let amap = Address_map.build skel.sk_prog ~layouts in
  let nests =
    Array.map
      (fun sn ->
        let depth = Array.length sn.sn_counts in
        let na = Array.length sn.sn_accesses in
        let addr0 = Array.make na 0 in
        let deltas = Array.make_matrix depth na 0 in
        Array.iteri
          (fun k sa ->
            let a0, ds =
              fold_access
                ~base:(Address_map.base amap sa.sa_name)
                ~elem:(Address_map.elem_size amap sa.sa_name)
                (Address_map.transform amap sa.sa_name)
                sn sa
            in
            addr0.(k) <- a0;
            Array.iteri (fun l d -> deltas.(l).(k) <- d) ds)
          sn.sn_accesses;
        { counts = sn.sn_counts; addr0; deltas })
      skel.sk_nests
  in
  {
    nests;
    footprint = Address_map.footprint_bytes amap;
    trips = skel.sk_trips;
    skel;
  }

let compile prog ~layouts = instantiate (skeleton prog) ~layouts

let footprint_bytes t = t.footprint
let trip_count t = t.trips

let forms t =
  Array.mapi
    (fun i cn ->
      let sn = t.skel.sk_nests.(i) in
      {
        form_nest = sn.sn_name;
        form_counts = Array.copy cn.counts;
        form_accesses =
          Array.init
            (Array.length sn.sn_accesses)
            (fun k ->
              {
                form_array = sn.sn_accesses.(k).sa_name;
                form_addr0 = cn.addr0.(k);
                form_deltas =
                  Array.init (Array.length cn.counts) (fun l ->
                      cn.deltas.(l).(k));
              });
      })
    t.nests

(* The same folds as [instantiate], run for one array's accesses only:
   the locality profiler's query varies that one array's layout.  Its
   base is [amap]'s — a relayout moves only the arrays declared after
   it. *)
let array_forms skel amap name layout ~nests =
  let transform = Address_map.layout_transform amap name layout in
  let base = Address_map.base amap name
  and elem = Address_map.elem_size amap name in
  Array.map
    (fun i ->
      let sn = skel.sk_nests.(i) in
      let forms = ref [] in
      for k = Array.length sn.sn_accesses - 1 downto 0 do
        let sa = sn.sn_accesses.(k) in
        if String.equal sa.sa_name name then begin
          let addr0, deltas = fold_access ~base ~elem transform sn sa in
          forms :=
            (k, { form_array = name; form_addr0 = addr0; form_deltas = deltas })
            :: !forms
        end
      done;
      Array.of_list !forms)
    nests

(* ------------------------------------------------------------------ *)
(* Flattened two-level hierarchy                                        *)
(* ------------------------------------------------------------------ *)

(* The probe/fill path of Cache+Hierarchy specialized into one record of
   flat arrays and ints, so a simulated access is shifts, masks and array
   reads with no cross-module calls and no allocation.  The replacement
   and accounting logic mirrors Cache.access / Hierarchy.access exactly
   (enforced by the equivalence properties in test/test_cachesim.ml). *)
type level = {
  tags : int array;
  stamps : int array;
  line_shift : int;
  set_shift : int;
  set_mask : int;
  assoc : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

type hier = {
  l1 : level;
  l2 : level;
  cost_l1 : int; (* L1 hit, compute included *)
  cost_l2 : int; (* L1 miss, L2 hit *)
  cost_mem : int; (* miss in both *)
  mutable cycles : int;
}

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let make_level (g : Cache.geometry) =
  let num_sets = g.Cache.size_bytes / (g.Cache.assoc * g.Cache.line_bytes) in
  {
    tags = Array.make (num_sets * g.Cache.assoc) (-1);
    stamps = Array.make (num_sets * g.Cache.assoc) 0;
    line_shift = log2 g.Cache.line_bytes;
    set_shift = log2 num_sets;
    set_mask = num_sets - 1;
    assoc = g.Cache.assoc;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let make_hier (config : Hierarchy.config) =
  {
    l1 = make_level config.Hierarchy.l1;
    l2 = make_level config.Hierarchy.l2;
    cost_l1 =
      config.Hierarchy.l1_latency + config.Hierarchy.compute_cycles_per_access;
    cost_l2 =
      config.Hierarchy.l1_latency + config.Hierarchy.l2_latency
      + config.Hierarchy.compute_cycles_per_access;
    cost_mem =
      config.Hierarchy.l1_latency + config.Hierarchy.l2_latency
      + config.Hierarchy.memory_latency
      + config.Hierarchy.compute_cycles_per_access;
    cycles = 0;
  }

(* Same victim policy as Cache.access: first way with the strictly
   smallest stamp (invalid ways keep stamp 0 and lose every comparison
   against it, so they fill in way order). *)
let[@inline] level_access lv addr =
  let line = addr lsr lv.line_shift in
  let base = (line land lv.set_mask) * lv.assoc in
  let tag = line lsr lv.set_shift in
  lv.clock <- lv.clock + 1;
  let tags = lv.tags in
  let slot = ref (-1) in
  let w = ref 0 in
  while !slot < 0 && !w < lv.assoc do
    if Array.unsafe_get tags (base + !w) = tag then slot := base + !w;
    incr w
  done;
  if !slot >= 0 then begin
    Array.unsafe_set lv.stamps !slot lv.clock;
    lv.hits <- lv.hits + 1;
    true
  end
  else begin
    lv.misses <- lv.misses + 1;
    let stamps = lv.stamps in
    let victim = ref base in
    for w = 1 to lv.assoc - 1 do
      if Array.unsafe_get stamps (base + w) < Array.unsafe_get stamps !victim
      then victim := base + w
    done;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set stamps !victim lv.clock;
    false
  end

let[@inline] hier_access h addr =
  let cost =
    if level_access h.l1 addr then h.cost_l1
    else if level_access h.l2 addr then h.cost_l2
    else h.cost_mem
  in
  h.cycles <- h.cycles + cost

let hier_counters h =
  {
    Hierarchy.accesses = h.l1.hits + h.l1.misses;
    l1_hits = h.l1.hits;
    l1_misses = h.l1.misses;
    l2_hits = h.l2.hits;
    l2_misses = h.l2.misses;
    cycles = h.cycles;
  }

(* ------------------------------------------------------------------ *)
(* The nest walk                                                        *)
(* ------------------------------------------------------------------ *)

let simulate_nest h nest =
  let depth = Array.length nest.counts in
  let na = Array.length nest.addr0 in
  let cur = Array.copy nest.addr0 in
  let rec go level =
    let c = nest.counts.(level) in
    let dl = nest.deltas.(level) in
    if level = depth - 1 then begin
      for _ = 1 to c do
        for k = 0 to na - 1 do
          hier_access h (Array.unsafe_get cur k)
        done;
        for k = 0 to na - 1 do
          Array.unsafe_set cur k
            (Array.unsafe_get cur k + Array.unsafe_get dl k)
        done
      done
    end
    else
      for _ = 1 to c do
        go (level + 1);
        for k = 0 to na - 1 do
          cur.(k) <- cur.(k) + dl.(k)
        done
      done;
    (* rewind this level so the caller's increments stay incremental *)
    for k = 0 to na - 1 do
      cur.(k) <- cur.(k) - (c * dl.(k))
    done
  in
  go 0

(* Traced variant of [simulate_nest]: the identical walk, plus a
   per-access countdown that fires [emit] every [sample_every] accesses.
   Kept as a separate copy so the untraced inner loop carries no hook
   branch; counter parity with [simulate_nest] is qcheck-enforced in
   test/test_trace.ml. *)
let simulate_nest_traced h nest ~countdown ~sample_every ~emit =
  let depth = Array.length nest.counts in
  let na = Array.length nest.addr0 in
  let cur = Array.copy nest.addr0 in
  let tick () =
    decr countdown;
    if !countdown <= 0 then begin
      countdown := sample_every;
      emit ()
    end
  in
  let rec go level =
    let c = nest.counts.(level) in
    let dl = nest.deltas.(level) in
    if level = depth - 1 then begin
      for _ = 1 to c do
        for k = 0 to na - 1 do
          hier_access h (Array.unsafe_get cur k);
          tick ()
        done;
        for k = 0 to na - 1 do
          Array.unsafe_set cur k
            (Array.unsafe_get cur k + Array.unsafe_get dl k)
        done
      done
    end
    else
      for _ = 1 to c do
        go (level + 1);
        for k = 0 to na - 1 do
          cur.(k) <- cur.(k) + dl.(k)
        done
      done;
    for k = 0 to na - 1 do
      cur.(k) <- cur.(k) - (c * dl.(k))
    done
  in
  go 0

(* Counter sampling period when tracing is enabled (accesses between
   "cache" counter events); the final totals are always emitted. *)
let trace_sample_every = 8192

let simulate ?(config = Hierarchy.paper_config) t =
  let h = make_hier config in
  if not (Trace.enabled ()) then begin
    Array.iter (fun nest -> simulate_nest h nest) t.nests;
    hier_counters h
  end
  else
    Trace.with_span ~cat:"cachesim" "simulate"
      ~args:[ ("trips", Trace.Int t.trips) ]
      (fun () ->
        let emit () =
          Trace.counter ~cat:"cachesim" "cache"
            [
              ("l1_hits", float_of_int h.l1.hits);
              ("l1_misses", float_of_int h.l1.misses);
              ("l2_hits", float_of_int h.l2.hits);
              ("l2_misses", float_of_int h.l2.misses);
              ("cycles", float_of_int h.cycles);
            ]
        in
        let countdown = ref trace_sample_every in
        Array.iter
          (fun nest ->
            simulate_nest_traced h nest ~countdown
              ~sample_every:trace_sample_every ~emit)
          t.nests;
        emit ();
        hier_counters h)
