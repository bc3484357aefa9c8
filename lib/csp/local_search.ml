type config = { seed : int; max_steps : int; restarts : int }

let default_config = { seed = 0; max_steps = 10_000; restarts = 10 }

type outcome = Solution of int array | Stuck of int array * int

type result = { outcome : outcome; steps : int }

let conflicts comp a =
  let acc = ref 0 in
  for i = 0 to Compiled.num_vars comp - 1 do
    let nbrs = Compiled.neighbors comp i in
    for k = 0 to Array.length nbrs - 1 do
      let j = nbrs.(k) in
      if j > i && not (Compiled.allowed comp i a.(i) j a.(j)) then incr acc
    done
  done;
  !acc

(* Every query is an O(1) probe into the immutable compiled tables, so
   the loop can run on a worker Domain while siblings share the view. *)
let solve ?(config = default_config) ?cancel comp =
  let n = Compiled.num_vars comp in
  let rng = Rng.create config.seed in
  let steps = ref 0 in
  let cancelled =
    match cancel with
    | None -> fun () -> false
    | Some c -> fun () -> !steps land 127 = 0 && c ()
  in
  let best = ref None in
  let var_conflicts a var v =
    let nbrs = Compiled.neighbors comp var in
    let acc = ref 0 in
    for k = 0 to Array.length nbrs - 1 do
      let j = Array.unsafe_get nbrs k in
      if not (Compiled.allowed comp var v j a.(j)) then incr acc
    done;
    !acc
  in
  let note a c =
    match !best with
    | Some (_, bc) when bc <= c -> ()
    | Some _ | None -> best := Some (Array.copy a, c)
  in
  let bad = Array.make (max 1 n) 0 in
  let fill_bad a =
    let m = ref 0 in
    for i = 0 to n - 1 do
      if var_conflicts a i a.(i) > 0 then begin
        bad.(!m) <- i;
        incr m
      end
    done;
    !m
  in
  let stuck () =
    match !best with
    | Some (a, c) -> { outcome = Stuck (a, c); steps = !steps }
    | None -> { outcome = Stuck ([||], max_int); steps = !steps }
  in
  let rec restart r =
    if r >= config.restarts then stuck ()
    else begin
      let a =
        Array.init n (fun i -> Rng.int rng (Compiled.domain_size comp i))
      in
      let rec improve k =
        let m = fill_bad a in
        if m = 0 then Some (Array.copy a)
        else if k >= config.max_steps || cancelled () then begin
          note a (conflicts comp a);
          None
        end
        else begin
          incr steps;
          let var = bad.(Rng.int rng m) in
          (* min-conflict value, random tie-break (reservoir over ties) *)
          let d = Compiled.domain_size comp var in
          let min_c = ref max_int and pick = ref a.(var) and ties = ref 0 in
          for v = 0 to d - 1 do
            let c = var_conflicts a var v in
            if c < !min_c then begin
              min_c := c;
              pick := v;
              ties := 1
            end
            else if c = !min_c then begin
              incr ties;
              if Rng.int rng !ties = 0 then pick := v
            end
          done;
          a.(var) <- !pick;
          improve (k + 1)
        end
      in
      match improve 0 with
      | Some a -> { outcome = Solution a; steps = !steps }
      | None -> if cancelled () then stuck () else restart (r + 1)
    end
  in
  let r = restart 0 in
  (match r.outcome with
  | Solution a -> assert (Compiled.verify comp a)
  | Stuck _ -> ());
  r
