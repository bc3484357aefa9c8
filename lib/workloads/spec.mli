(** Benchmark descriptors: a program plus the paper's published numbers.

    Each workload carries two versions of the same program: [program] at
    the full Table-1 data size (used for network extraction and the data
    size / domain size accounting) and [sim_program], identical in
    structure but with scaled extents, used for trace-driven simulation so
    Table 3 regenerates in seconds.  The published numbers are embedded so
    the benches can print paper-vs-measured side by side. *)

type solution_times = { heuristic_s : float; base_s : float; enhanced_s : float }
(** Paper Table 2 (seconds on the authors' 500 MHz Sparc). *)

type exec_times = {
  original_s : float;
  heuristic_exec_s : float;
  base_exec_s : float;
  enhanced_exec_s : float;
}
(** Paper Table 3 (simulated seconds). *)

type t = {
  name : string;
  description : string;
  program : Mlo_ir.Program.t;
  sim_program : Mlo_ir.Program.t;
  candidates : string -> Mlo_layout.Layout.t list;
      (** per-array candidate-layout palette, fed to
          {!Mlo_netgen.Build.build} so domains have the Table-1 sizes *)
  paper_domain_size : int;  (** Table 1 "Domain Size" *)
  paper_data_kb : float;  (** Table 1 "Data Size" in KB *)
  paper_solution : solution_times;
  paper_exec : exec_times;
}

val extract : t -> Mlo_netgen.Build.t
(** The constraint network of [program] with this spec's candidate
    palettes. *)

val data_kb : t -> float
(** Measured data size of [program], in KB. *)

val pp : Format.formatter -> t -> unit
