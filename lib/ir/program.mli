(** A whole application: array declarations plus a sequence of loop nests.

    This is the unit the constraint network is extracted from: the same
    array may appear in many nests with conflicting layout preferences,
    which is exactly the program-wide selection problem the paper solves. *)

type t

val make : name:string -> Array_info.t list -> Loop_nest.t list -> t
(** Builds a program.  Raises [Invalid_argument] if array names collide,
    a nest references an undeclared array, an access's rank differs from
    the declared array rank, or there are no nests. *)

val name : t -> string
val arrays : t -> Array_info.t array
val nests : t -> Loop_nest.t array

val legal_orders : t -> int array list array
(** Per nest, in program order: its dependence-legal loop orders
    ({!Dependence.legal_orders}, identity first).  The dependence
    analysis runs once per program value, on first use, inside an
    [ir]/[deps] trace span; every later call (from any Domain) reads the
    staged result, so network extraction, costing, restructuring and
    verification of one program share a single pass.  The outer array is
    fresh; the orders in it are shared and must not be mutated. *)

val find_array : t -> string -> Array_info.t
(** Raises [Not_found] if no array has the given name. *)

val array_names : t -> string list
(** Declaration order. *)

val array_index : t -> string -> int
(** Position of the named array in declaration order; raises [Not_found]. *)

val nests_touching : t -> string -> Loop_nest.t list
(** Nests that reference the named array, in program order. *)

val data_size_bytes : t -> int
(** Total bytes across all declared arrays (the paper's Table 1 "Data
    Size" column). *)

val total_trip_count : t -> int
(** Sum of nest trip counts; used as the denominator for nest weights. *)

val pp : Format.formatter -> t -> unit
