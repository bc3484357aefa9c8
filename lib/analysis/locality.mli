(** Static locality analysis: reuse vectors and closed-form miss
    prediction from compiled affine address forms.

    Every access in a compiled trace ({!Mlo_cachesim.Compiled_trace}) is
    an affine lattice [addr0 + sum_l delta_l * k_l] over the nest's
    iteration box, so its reuse structure is readable without walking a
    single address:

    - a zero [delta_l] is {e self-temporal} reuse carried by loop [l];
    - a [delta_l] smaller than the line size is {e self-spatial} reuse
      (successive iterations of [l] fall on the same line);
    - accesses to the same array whose delta vectors coincide and whose
      [addr0] differ by a constant form a {e group} and share lines.

    The per-nest miss estimate is a cold + capacity-approximate,
    interference-free bound: the distinct-line count of each group is
    computed in closed form (dense stride prefixes stay full at line
    granularity, the first sparse stride is an exact periodic alignment
    sum, line-aligned sparse strides multiply exactly), and reuse carried
    by a loop level is granted only when the subnest inside it fits the
    cache — both by total capacity and by the group's own footprint per
    cache set (so pathological power-of-two stride streams that thrash a
    set-associative cache are charged their conflict re-fetches).
    Cross-array conflict interference is ignored, which is what makes
    the estimate a bound rather than a prediction.

    On a fully-associative cache whose capacity covers the footprint all
    reuse is realized and the estimate degenerates to the distinct-line
    count; for the lattice shapes flagged [exact] that count is exact,
    which the qcheck family in [test/test_locality.ml] enforces against
    {!Mlo_cachesim.Simulate.run}. *)

type reuse_class = Temporal | Spatial | No_reuse

type level = {
  lv_delta : int;  (** signed byte stride at this loop level *)
  lv_count : int;  (** trip count *)
  lv_class : reuse_class;
  lv_realized : bool;
      (** the reuse carried by this level survives one execution of the
          subnest inside it (capacity and self-interference checks);
          always [true] for [No_reuse] levels *)
}

type group = {
  g_array : string;
  g_accesses : int list;  (** access indices within the nest, ascending *)
  g_levels : level array;  (** outermost first *)
  g_gaps : int array;
      (** sorted distinct constant address differences to the group
          leader (first element 0); singleton for a lone access *)
  g_lines : float;  (** distinct L1 lines touched (cold misses) *)
  g_misses : float;  (** closed-form miss estimate *)
  g_exact : bool;
      (** [g_lines] is an exact count and no capacity factor was
          applied, i.e. [g_misses = g_lines] exactly *)
}

type nest = {
  n_name : string;
  n_trips : int;  (** iterations of this nest *)
  n_groups : group list;
  n_lines : float;
  n_misses : float;
  n_exact : bool;
}

type report = {
  r_program : string;
  r_geometry : Mlo_cachesim.Cache.geometry;
  r_nests : nest list;
  r_lines : float;
  r_misses : float;
      (** whole-program L1 miss estimate, including cross-nest reuse
          credit for arrays still resident from an earlier nest *)
  r_exact : bool;
}

val analyze :
  ?geometry:Mlo_cachesim.Cache.geometry ->
  ?layouts:(string -> Mlo_layout.Layout.t option) ->
  Mlo_ir.Program.t ->
  report
(** Analyze [prog] under the given layout assignment (default layouts
    for arrays mapped to [None]).  [geometry] defaults to the paper's L1
    ({!Mlo_cachesim.Hierarchy.paper_config}).  Cost is linear in the
    number of accesses — no address stream is walked.  Raises like
    {!Mlo_cachesim.Address_map.build} on rank mismatches. *)

type metric = Misses | Lines
(** What {!profiler} charges a candidate layout per group: the
    closed-form miss estimate ([g_misses], the default) or the distinct
    L1 line count ([g_lines], the cold-miss floor — a capacity-blind
    objective for comparing layouts by footprint alone). *)

val profiler :
  ?metric:metric ->
  Mlo_ir.Program.t ->
  array_name:string ->
  layout:Mlo_layout.Layout.t ->
  float array
(** [profiler prog] returns the per-nest miss profile of one array under
    one candidate layout: entry [i] is the estimated misses of
    [array_name]'s references in nest [i] (0 where the nest does not
    touch it), minimized over the nest's dependence-legal loop orders,
    with every other array at its default layout, on the paper's L1.
    This is the cost signal dominance pruning ({!Mlo_netgen}) compares
    candidate layouts with, and the [Bnb] scheme's cost table sums.
    Each entry equals [array_name]'s summed [g_misses] (or [g_lines])
    in {!analyze} of the nest under its cheapest legal order.

    Per program the profiler stages, once, the trace skeleton and the
    default address map and forms, and reads each nest's legal orders
    from the program ({!Mlo_ir.Program.legal_orders}); per (nest, legal
    order, array), on the first query touching the nest, the summed
    inner-footprint terms of the {e other} arrays' default groups.  A
    query then folds only [array_name]'s accesses in the nests touching
    it ({!Mlo_cachesim.Compiled_trace.array_forms}), re-counts only its
    groups and adds their terms to that sum: relaying out one array
    moves the others by whole cache lines, so their staged terms stand.
    Raises [Invalid_argument] like {!Mlo_cachesim.Address_map.build} if
    [layout]'s rank differs from a touched array's.

    Queries are memoized: a profile is a pure function of
    (program, metric, array, layout), so results are cached under the
    {e physical} identity of [prog] and shared by every profiler over
    the same program object — re-profiling a program the process has
    already costed (a solver service, repeated pruning passes) only pays
    hashtable lookups.  Entries are dropped once their program is
    collected.  Queries may run on several Domains at once: a program's
    tables are locked only around lookup and insert, so nests are
    staged and profiles computed in parallel (two Domains missing on
    one key both compute it; the first insert wins).  Returned arrays
    are fresh — safe to mutate. *)

val staged_terms : Mlo_ir.Program.t -> float array array list
(** The inner-footprint terms {!profiler} stages for [prog]: per (nest,
    legal order), per default group, per loop position.  Each is a line
    count.  The profiler sums them in an order other than
    {!analyze}'s, which gives the same bits only while every term is an
    integer and every position's total stays below 2{^53}. *)

val pp : Format.formatter -> report -> unit
(** Human-readable per-nest/per-group table. *)

val to_json : report -> Mlo_obs.Json.t
(** The report as a JSON object (the [locality] payload of the CLI's
    [memlayout-locality/1] documents). *)
