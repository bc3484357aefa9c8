type solution_times = { heuristic_s : float; base_s : float; enhanced_s : float }

type exec_times = {
  original_s : float;
  heuristic_exec_s : float;
  base_exec_s : float;
  enhanced_exec_s : float;
}

type t = {
  name : string;
  description : string;
  program : Mlo_ir.Program.t;
  sim_program : Mlo_ir.Program.t;
  candidates : string -> Mlo_layout.Layout.t list;
  paper_domain_size : int;
  paper_data_kb : float;
  paper_solution : solution_times;
  paper_exec : exec_times;
}

let extract t =
  Mlo_obs.Trace.with_span ~cat:"workload" "extract"
    ~args:[ ("workload", Mlo_obs.Trace.Str t.name) ]
  @@ fun () -> Mlo_netgen.Build.build ~candidates:t.candidates t.program

let data_kb t =
  float_of_int (Mlo_ir.Program.data_size_bytes t.program) /. 1024.

let pp ppf t =
  Format.fprintf ppf "%s: %s (%d arrays, %d nests, %.2fKB)" t.name
    t.description
    (Array.length (Mlo_ir.Program.arrays t.program))
    (Array.length (Mlo_ir.Program.nests t.program))
    (data_kb t)
