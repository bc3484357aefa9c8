module Network = Mlo_csp.Network
module Relation = Mlo_csp.Relation
module Locality = Mlo_analysis.Locality
module Trace = Mlo_obs.Trace

type info = {
  before : int;
  after : int;
  per_array : (string * int) list;
  removed : (int * int * int) list;
  survivors : int array array;
}

let total i = i.before - i.after

(* sorted ascending int lists *)
let rec subset xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    if x = y then subset xs' ys'
    else if x > y then subset xs ys'
    else false

let apply (b : Build.t) =
  Trace.with_span ~cat:"netgen" "prune-dominated" @@ fun () ->
  let net = b.Build.network in
  let n = Network.num_vars net in
  let profile = Locality.profiler b.Build.program in
  let keep = Array.init n (fun i -> Array.make (Network.domain_size net i) true) in
  let per_array = ref [] in
  let removals = ref [] in
  for i = 0 to n - 1 do
    let name = Network.name net i in
    let dom = Network.domain net i in
    let d = Array.length dom in
    let profiles =
      Array.map (fun layout -> profile ~array_name:name ~layout) dom
    in
    (* per-constraint support lists, i viewed as the left side *)
    let supports =
      List.map
        (fun j ->
          match Network.relation net i j with
          | Some rel -> Array.init d (Relation.supports_of_left rel)
          | None -> Array.make d [])
        (Network.neighbors net i)
    in
    let dominates v1 v2 =
      let p1 = profiles.(v1) and p2 = profiles.(v2) in
      let le = ref true and lt = ref false in
      Array.iteri
        (fun k x ->
          if x > p2.(k) then le := false else if x < p2.(k) then lt := true)
        p1;
      !le && !lt
      && List.for_all (fun sup -> subset sup.(v2) sup.(v1)) supports
    in
    let removed = ref 0 in
    for v2 = 0 to d - 1 do
      let v1 = ref 0 in
      while keep.(i).(v2) && !v1 < d do
        if !v1 <> v2 && dominates !v1 v2 then begin
          keep.(i).(v2) <- false;
          incr removed
        end;
        incr v1
      done
    done;
    (* Record every removed value with a *kept* dominating witness for
       the certificate log.  The removal loop accepts any dominator;
       a kept one always exists because dominance is a strict partial
       order (follow dominators upward — the chain ends at a maximal,
       hence kept, value that dominates transitively). *)
    for v2 = 0 to d - 1 do
      if not keep.(i).(v2) then begin
        let w = ref (-1) in
        for v1 = d - 1 downto 0 do
          if keep.(i).(v1) && dominates v1 v2 then w := v1
        done;
        assert (!w >= 0);
        removals := (i, v2, !w) :: !removals
      end
    done;
    if !removed > 0 then per_array := (name, !removed) :: !per_array
  done;
  let before = Network.total_domain_size net in
  let pruned = Network.restrict_domains net keep in
  let after = Network.total_domain_size pruned in
  Trace.counter ~cat:"netgen" "dominance-pruned"
    [ ("values", float_of_int (before - after)) ];
  let survivors =
    Array.init n (fun i ->
        let kept = ref [] in
        for v = Array.length keep.(i) - 1 downto 0 do
          if keep.(i).(v) then kept := v :: !kept
        done;
        Array.of_list !kept)
  in
  ( { b with Build.network = pruned },
    {
      before;
      after;
      per_array =
        List.sort (fun (a, _) (b, _) -> String.compare a b) !per_array;
      removed = List.rev !removals;
      survivors;
    } )
