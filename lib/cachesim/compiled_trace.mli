(** Compiled address streams: the trace-driven simulator's hot core.

    For every [(nest, access, layout)] triple the byte address is the
    composition of two affine maps — the access function
    ({!Mlo_ir.Access.element_at}) and the layout's linearized transform
    ({!Mlo_layout.Transform.cell_index}) — and is therefore itself affine
    in the iteration vector:

    {v addr(iter) = addr0 + sum_level delta_level * (iter_level - lo_level) v}

    [compile] folds base address, element size, transform matrix,
    bounding-box mins and row-major strides into that single form, once
    per access; the nest walk then maintains one current address per
    access and adds a precomputed per-level delta at each loop advance —
    no allocation, no string lookups and no matrix arithmetic per
    simulated access.  The cache hierarchy is likewise specialized into
    flat arrays so a simulated access is a handful of shifts, masks and
    array reads.

    The engine is bit-identical in all counters to the interpretive path
    kept as {!Simulate.run_reference} (qcheck-enforced). *)

type skeleton
(** The layout-independent part: per-nest trip counts, loop lower bounds
    and access matrices.  Built once per program and shared across layout
    assignments (and across domains — it is immutable). *)

type t
(** A fully compiled trace: [skeleton] specialized to one layout
    assignment's address map. *)

val skeleton : Mlo_ir.Program.t -> skeleton

val instantiate :
  skeleton -> layouts:(string -> Mlo_layout.Layout.t option) -> t
(** Specialize a skeleton to one layout assignment.  Cost is linear in
    the number of accesses (not iterations).  Raises like
    {!Address_map.build} on rank mismatches. *)

val compile :
  Mlo_ir.Program.t -> layouts:(string -> Mlo_layout.Layout.t option) -> t
(** [skeleton] followed by [instantiate]. *)

val footprint_bytes : t -> int
val trip_count : t -> int
(** Total loop iterations the trace executes (statically known). *)

type access_form = {
  form_array : string;  (** array the access reads or writes *)
  form_addr0 : int;  (** byte address at the nest's lower corner *)
  form_deltas : int array;
      (** per-level byte increment, outermost first: the access touches
          [form_addr0 + sum_l form_deltas.(l) * k_l] for
          [0 <= k_l < form_counts.(l)] *)
}

type nest_form = {
  form_nest : string;
  form_counts : int array;  (** per-level trip count, outermost first *)
  form_accesses : access_form array;
}

val array_forms :
  skeleton ->
  Address_map.t ->
  string ->
  Mlo_layout.Layout.t ->
  nests:int array ->
  (int * access_form) array array
(** [array_forms skel amap name layout ~nests] compiles only [name]'s
    accesses in the listed nests (by program nest index, result in
    argument order), each paired with its index in the nest, ascending.
    They equal [name]'s entries of [forms (instantiate skel ~layouts)]
    where [layouts] maps [name] to [layout] and every other array as
    [amap] was built: a relayout changes [name]'s transform, never its
    base, so [amap] only supplies the base and element size.  One
    {!Mlo_layout.Transform.make} per call, no address map rebuilt —
    the locality profiler's query shape.  Raises [Invalid_argument] like
    {!Address_map.layout_transform} on a rank mismatch or an array
    [amap] does not cover. *)

val forms : t -> nest_form array
(** The compiled affine address forms, one per nest in program order.
    This is the static view the locality analyzer
    ({!Mlo_analysis.Locality}) consumes: every simulated address is
    described exactly by these lattices, so reuse distances and line
    counts can be derived without walking the stream.  Fresh arrays —
    safe to mutate. *)

val simulate : ?config:Hierarchy.config -> t -> Hierarchy.counters
(** Run the compiled trace on a cold hierarchy and return its counters.
    [config] defaults to {!Hierarchy.paper_config}. *)
