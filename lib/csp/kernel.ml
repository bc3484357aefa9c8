(* The compiled depth-first search shared by every systematic engine.
   The kernel owns the level loop and everything the engines have in
   common; the engine-specific steps arrive as a hook record built once
   per solve (see kernel.mli).  Soundness notes for the learned store:

   - A learned nogood is the set of assignments at the dead end's
     conflict-set levels: CBJ semantics say those assignments (alone)
     admit no extension of the dead-end variable, so no solution holds
     them all.  Supersets of conflict sets stay valid, so the coarse
     per-variable blame below only weakens nogoods, never breaks them.
   - A nogood-forced pruning is blamed on the levels of all its held
     literals (blaming just the current level would be unsound: the
     pruning survives backtracking above the other literals' levels).
     Blame bits for levels whose trail entry lives elsewhere can go
     stale after backjumps — stale bits only add premises to later
     conflict sets, which keeps them valid (and {!reset} clears the
     matrix, bounding the drift).
   - Unit nogoods are global bans: a singleton conflict set means the
     assignment alone admits no extension, independent of the rest of
     the tree. *)

module Trace = Mlo_obs.Trace

type outcome = Solution of int array | Unsatisfiable | Aborted
type result = { outcome : outcome; stats : Stats.t }
type backward = Chronological | Graph_based | Conflict_directed

exception Abort

type setup = {
  span : string;
  ac : bool;
  fc : bool;
  backward : backward;
  learn : int option;
  degrees : bool;
  max_checks : int option;
}

type state = {
  comp : Compiled.t;
  n : int;
  stats : Stats.t;
  fc : bool;
  assignment : int array;
  level_of : int array;
  var_at : int array;
  live : Bitset.t array option;
  domains : Bitset.t array;
  trail : (int * int) list array;
  lw : int;
  conf : int array;
  pruned_by : int array;
  un_deg : int array;
  as_deg : int array;
  store : Nogood.t option;
  lvars : int array;
  lvals : int array;
  md : int;
  cand : int array;
  scores : float array;
}

type hooks = {
  select : unit -> int;
  order : int -> int -> int -> unit;
  refute : (int -> int -> int -> bool) option;
  conflict : (int -> int -> unit) option;
  leaf : (unit -> unit) option;
  drive : (unit -> bool) -> outcome;
}

(* Outcome of exploring one level: a full solution was found below, or
   the search must resume at the given level (-1 = none left), with the
   conflict levels to merge there in the single carry buffer (only one
   failure unwinds at a time). *)
type step = Found | Fail of int

let first st descend =
  if descend () then Solution (Array.copy st.assignment) else Unsatisfiable

(* In-place insertion sort of a candidate slice by (score desc, value
   asc) — a total order, so the result does not depend on the input
   order, and no tuple, closure or boxed float is allocated. *)
let sort_by st level m table base =
  let off = level * st.md and cand = st.cand and scores = st.scores in
  for k = 0 to m - 1 do
    scores.(k) <- table.(base + cand.(off + k))
  done;
  for k = 1 to m - 1 do
    let s = scores.(k) and v = cand.(off + k) in
    let p = ref k in
    while
      !p > 0
      && (scores.(!p - 1) < s || (scores.(!p - 1) = s && cand.(off + !p - 1) > v))
    do
      scores.(!p) <- scores.(!p - 1);
      cand.(off + !p) <- cand.(off + !p - 1);
      decr p
    done;
    scores.(!p) <- s;
    cand.(off + !p) <- v
  done

let fresh_domains comp live =
  match live with
  | Some reduced -> Array.map Bitset.copy reduced
  | None ->
    Array.init (Compiled.num_vars comp) (fun i ->
        Bitset.create_full (Compiled.domain_size comp i))

(* Run [f] (a store operation) and account for the nogoods it dropped. *)
let counting_forgotten stats store f =
  let forgotten0 = Nogood.forgotten store in
  f ();
  let dropped = Nogood.forgotten store - forgotten0 in
  if dropped > 0 then begin
    stats.Stats.forgotten <- stats.Stats.forgotten + dropped;
    if Trace.enabled () then
      Trace.instant ~cat:"solver" "forget"
        ~args:[ ("dropped", Trace.Int dropped) ]
  end

let reduce st ~limit =
  Option.iter
    (fun store ->
      counting_forgotten st.stats store (fun () -> Nogood.reduce store ~limit))
    st.store

let reset st =
  let n = st.n in
  Array.fill st.assignment 0 n (-1);
  Array.fill st.level_of 0 n (-1);
  Array.fill st.var_at 0 n (-1);
  Array.iteri (fun i _ -> st.un_deg.(i) <- Compiled.degree st.comp i) st.un_deg;
  Array.fill st.as_deg 0 (Array.length st.as_deg) 0;
  if st.fc then begin
    Array.fill st.trail 0 n [];
    Lset.clear st.pruned_by 0 (n * st.lw);
    Array.blit (fresh_domains st.comp st.live) 0 st.domains 0 n
  end

let run ?cancel ?on_learn (setup : setup) comp make_hooks =
  let n = Compiled.num_vars comp in
  let stats = Stats.create () in
  Stats.ensure_hists stats n;
  (* Tracing gate read once per solve: per-node events cost one local
     branch when disabled. *)
  let tr = Trace.enabled () in
  let fc = setup.fc in
  if setup.learn <> None && ((not fc) || setup.backward <> Conflict_directed)
  then invalid_arg "Kernel: learning needs forward checking and CBJ";
  let t_wall = Clock.wall_s () and t_cpu = Clock.cpu_s () in
  let finish outcome =
    stats.Stats.elapsed_s <- Clock.wall_s () -. t_wall;
    stats.Stats.cpu_s <- Clock.cpu_s () -. t_cpu;
    { outcome; stats }
  in
  (* Optional AC-2001 preprocessing: shrink the domains the search (and,
     under forward checking, the pruning) starts from.  Propagation work
     is not counted in [stats.checks]. *)
  let live =
    if not setup.ac then Some None
    else
      match Ac2001.run comp with
      | Error _wiped -> None
      | Ok domains -> Some (Some domains)
  in
  match live with
  | None -> finish Unsatisfiable
  | Some live ->
    let backward = setup.backward and degrees = setup.degrees in
    let counted = if degrees then n else 0 in
    let jump = backward <> Chronological in
    let lw = Lset.words n in
    let md = Array.fold_left max 1 (Array.init n (Compiled.domain_size comp)) in
    let store = Option.map (fun limit -> Nogood.create ~limit comp) setup.learn in
    (* Per-level candidate buffers, flattened to one stride-[md] array:
       a level's value order must survive the recursive search below it,
       and every level above is done with its own, so a level-indexed
       slice removes all per-node allocation.  Conflict rows, the carry
       and the forward-checking state exist only where they are read. *)
    let st =
      {
        comp;
        n;
        stats;
        fc;
        assignment = Array.make n (-1);
        level_of = Array.make n (-1);
        var_at = Array.make n (-1);
        live;
        domains = (if fc then fresh_domains comp live else [||]);
        trail = (if fc then Array.make n [] else [||]);
        lw;
        conf = (if jump then Lset.make_mat n n else [||]);
        pruned_by = (if fc then Lset.make_mat n n else [||]);
        un_deg = Array.init counted (Compiled.degree comp);
        as_deg = Array.make counted 0;
        store;
        lvars = Array.make n 0;
        lvals = Array.make n 0;
        md;
        cand = Array.make (n * md) 0;
        scores = Array.make md 0.0;
      }
    in
    let h = make_hooks st in
    let learns = Option.is_some store || Option.is_some h.conflict in
    let { assignment; level_of; var_at; domains; trail; conf; pruned_by; _ } =
      st
    in
    let { un_deg; as_deg; lvars; lvals; cand; _ } = st in
    let carry = if jump then Lset.make_mat 1 n else [||] in
    let llvls = Array.make n 0 in

    let check_limit =
      match setup.max_checks with Some m -> m | None -> max_int
    in
    (* Cooperative cancellation piggybacks on the check counter (every
       256th check), so solves without a [cancel] pay nothing and solves
       with one pay a closure call amortized over 256 table probes. *)
    let bump_check =
      match cancel with
      | None ->
        fun () ->
          stats.Stats.checks <- stats.Stats.checks + 1;
          if stats.Stats.checks > check_limit then raise Abort
      | Some cancelled ->
        fun () ->
          stats.Stats.checks <- stats.Stats.checks + 1;
          if stats.Stats.checks > check_limit then raise Abort;
          if stats.Stats.checks land 255 = 0 && cancelled () then raise Abort
    in

    (* Per-variable counts of unassigned/assigned neighbours, maintained
       incrementally at (un)assignment so degree-based variable
       selection scans in O(1) per candidate instead of O(degree). *)
    let mark var d =
      let nbrs = Compiled.neighbors comp var in
      for k = 0 to Array.length nbrs - 1 do
        let j = nbrs.(k) in
        un_deg.(j) <- un_deg.(j) - d;
        as_deg.(j) <- as_deg.(j) + d
      done
    in

    (* [conf row level := levels of var's instantiated neighbours] *)
    let conf_from_neighbors level var =
      let off = level * lw in
      Lset.clear conf off lw;
      let nbrs = Compiled.neighbors comp var in
      for k = 0 to Array.length nbrs - 1 do
        let j = Array.unsafe_get nbrs k in
        if level_of.(j) >= 0 then Lset.add conf off level_of.(j)
      done
    in

    (* Fill [cand] slice [level] with [var]'s live, unbanned values in
       ascending order and return how many there are. *)
    let fill var level =
      let off = level * md in
      let m =
        if fc then Bitset.fill_array domains.(var) cand off
        else
          match live with
          | Some reduced -> Bitset.fill_array reduced.(var) cand off
          | None ->
            let d = Compiled.domain_size comp var in
            for v = 0 to d - 1 do
              cand.(off + v) <- v
            done;
            d
      in
      match store with
      | None -> m
      | Some store ->
        let kept = ref 0 in
        for k = 0 to m - 1 do
          let v = cand.(off + k) in
          if not (Nogood.banned store var v) then begin
            cand.(off + !kept) <- v;
            incr kept
          end
        done;
        !kept
    in

    (* Check [var = v] against instantiated neighbours in instantiation
       order; on conflict record the culprit level for conflict-directed
       jumping.  Only without lookahead: under forward checking surviving
       domain values are already consistent with every instantiated
       variable. *)
    let nbr_scratch = Array.make n 0 in
    let consistent_with_assigned var v level =
      let nbrs = Compiled.neighbors comp var in
      let cnt = ref 0 in
      for k = 0 to Array.length nbrs - 1 do
        let j = nbrs.(k) in
        if level_of.(j) >= 0 then begin
          (* insertion sort by level, ascending *)
          let p = ref !cnt in
          while !p > 0 && level_of.(nbr_scratch.(!p - 1)) > level_of.(j) do
            nbr_scratch.(!p) <- nbr_scratch.(!p - 1);
            decr p
          done;
          nbr_scratch.(!p) <- j;
          incr cnt
        end
      done;
      let k = ref 0 and ok = ref true in
      while !ok && !k < !cnt do
        let j = nbr_scratch.(!k) in
        bump_check ();
        if Compiled.allowed comp var v j assignment.(j) then incr k
        else begin
          if backward = Conflict_directed then
            Lset.add conf (level * lw) level_of.(j);
          ok := false
        end
      done;
      !ok
    in

    let prune level j w =
      Bitset.remove domains.(j) w;
      trail.(level) <- (j, w) :: trail.(level);
      Lset.add pruned_by (j * lw) level;
      stats.Stats.prunings <- stats.Stats.prunings + 1;
      if tr then
        Trace.instant ~cat:"solver" "prune"
          ~args:
            [
              ("var", Trace.Int j);
              ("value", Trace.Int w);
              ("level", Trace.Int level);
            ]
    in

    let undo_level level =
      List.iter (fun (j, w) -> Bitset.add domains.(j) w) trail.(level);
      List.iter
        (fun (j, _) -> Lset.remove pruned_by (j * lw) level)
        trail.(level);
      trail.(level) <- []
    in

    (* Prune future neighbours against [var = v]; false on a domain
       wipeout (conflict levels of the wiped variable are merged into
       this level's conflict set).  One support-row fetch prunes a whole
       neighbour domain word-parallel. *)
    let fc_assign var v level =
      let nbrs = Compiled.neighbors comp var in
      let wiped = ref false in
      let k = ref 0 in
      while (not !wiped) && !k < Array.length nbrs do
        let j = nbrs.(!k) in
        incr k;
        if level_of.(j) < 0 then begin
          bump_check ();
          let row = Compiled.row comp (Compiled.handle comp var j) v in
          Bitset.iter_diff (fun w -> prune level j w) domains.(j) row;
          if Bitset.is_empty domains.(j) then begin
            wiped := true;
            if jump then
              Lset.union_below pruned_by (j * lw) conf (level * lw) level lw
          end
        end
      done;
      not !wiped
    in

    let held y w = assignment.(y) = w in
    (* Nogood-forced pruning: remove the last non-held literal's value,
       blaming every held literal's level (see the soundness note at the
       top).  The store cannot see domains, so applicability is checked
       here. *)
    let ng_prune store level id ~var:x ~value:w =
      if level_of.(x) >= 0 || not (Bitset.mem domains.(x) w) then false
      else begin
        prune level x w;
        Nogood.iter_lits store id (fun y u ->
            if assignment.(y) = u then Lset.add pruned_by (x * lw) level_of.(y));
        Bitset.is_empty domains.(x)
      end
    in

    (* Propagate the new assignment through the learned store; [false]
       means this value dies here (culprits merged into this level's
       conflict set, prunings undone by the caller). *)
    let ng_assign var v level =
      match store with
      | None -> true
      | Some store -> (
        bump_check ();
        match
          Nogood.on_assign store ~var ~value:v ~held
            ~prune:(ng_prune store level)
        with
        | Nogood.Quiet -> true
        | Nogood.Wiped x ->
          Lset.union_below pruned_by (x * lw) conf (level * lw) level lw;
          false
        | Nogood.Violated id ->
          Nogood.iter_lits store id (fun y u ->
              if assignment.(y) = u && level_of.(y) < level then
                Lset.add conf (level * lw) level_of.(y));
          false)
    in

    (* Record the dead end's culprit assignments (ascending levels) as a
       nogood, then let the engine react to the conflict. *)
    let learn var level =
      let cnt = ref 0 in
      Lset.iter
        (fun l ->
          let y = var_at.(l) in
          lvars.(!cnt) <- y;
          lvals.(!cnt) <- assignment.(y);
          llvls.(!cnt) <- l;
          incr cnt)
        conf (level * lw) lw;
      let cnt = !cnt in
      (match store with
      | Some store when cnt > 0 ->
        counting_forgotten stats store (fun () ->
            Nogood.learn store ~n:cnt ~vars:lvars ~vals:lvals ~levels:llvls);
        (match on_learn with
        | None -> ()
        | Some f -> f ~dead:var (Array.init cnt (fun i -> (lvars.(i), lvals.(i)))));
        stats.Stats.learned <- stats.Stats.learned + 1;
        if tr then
          Trace.instant ~cat:"solver" "learn"
            ~args:[ ("size", Trace.Int cnt); ("level", Trace.Int level) ]
      | _ -> ());
      match h.conflict with None -> () | Some f -> f var cnt
    in

    let backtrack level =
      stats.Stats.backtracks <- stats.Stats.backtracks + 1;
      if tr then
        Trace.instant ~cat:"solver" "backtrack"
          ~args:[ ("level", Trace.Int level) ]
    in

    let dead_end var level =
      if not jump then begin
        backtrack level;
        Fail (level - 1)
      end
      else begin
        (* this level's conf row is dead after this node, filter it in
           place *)
        let off = level * lw in
        Lset.keep_below conf off level lw;
        if learns then learn var level;
        let target = Lset.max_elt conf off lw in
        if target < 0 then Fail (-1)
        else begin
          if target = level - 1 then backtrack level
          else begin
            stats.Stats.backjumps <- stats.Stats.backjumps + 1;
            if tr then
              Trace.instant ~cat:"solver" "backjump"
                ~args:
                  [
                    ("level", Trace.Int level);
                    ("target", Trace.Int target);
                    ("distance", Trace.Int (level - target));
                  ]
          end;
          Lset.copy conf off carry 0 lw;
          Lset.remove carry 0 target;
          Fail target
        end
      end
    in

    let rec search level =
      if level = n then begin
        match h.leaf with
        | None -> Found
        | Some record ->
          (* keep exhausting the tree: fail back chronologically, blamed
             on every level *)
          record ();
          Lset.clear carry 0 lw;
          for l = 0 to n - 2 do
            Lset.add carry 0 l
          done;
          Fail (n - 1)
      end
      else begin
        if level > stats.Stats.max_depth then stats.Stats.max_depth <- level;
        let var = h.select () in
        var_at.(level) <- var;
        level_of.(var) <- level;
        if degrees then mark var 1;
        (* Under forward checking, values already pruned from [var]'s own
           domain were removed by earlier assignments; those levels share
           responsibility for any dead-end here. *)
        (match backward with
        | Graph_based -> conf_from_neighbors level var
        | Conflict_directed ->
          if fc then Lset.copy pruned_by (var * lw) conf (level * lw) lw
          else Lset.clear conf (level * lw) lw
        | Chronological -> ());
        let m = fill var level in
        h.order var level m;
        let res = try_values var level m 0 in
        if degrees then mark var (-1);
        level_of.(var) <- -1;
        var_at.(level) <- -1;
        res
      end

    and try_values var level m k =
      if k >= m then dead_end var level
      else begin
        let v = cand.((level * md) + k) in
        stats.Stats.nodes <- stats.Stats.nodes + 1;
        stats.Stats.nodes_by_depth.(level) <-
          stats.Stats.nodes_by_depth.(level) + 1;
        stats.Stats.nodes_by_var.(var) <- stats.Stats.nodes_by_var.(var) + 1;
        if tr then
          Trace.instant ~cat:"solver" "decision"
            ~args:
              [
                ("var", Trace.Int var);
                ("value", Trace.Int v);
                ("level", Trace.Int level);
              ];
        if not (fc || consistent_with_assigned var v level) then
          try_values var level m (k + 1)
        else begin
          assignment.(var) <- v;
          let ok =
            ((not fc) || fc_assign var v level)
            && ng_assign var v level
            && match h.refute with None -> true | Some f -> not (f var v level)
          in
          if not ok then begin
            assignment.(var) <- -1;
            if fc then undo_level level;
            try_values var level m (k + 1)
          end
          else
            match search (level + 1) with
            | Found -> Found
            | Fail target ->
              assignment.(var) <- -1;
              if fc then undo_level level;
              if target < level then Fail target
              else begin
                if jump then Lset.union_below carry 0 conf (level * lw) level lw;
                try_values var level m (k + 1)
              end
        end
      end
    in

    let outcome =
      try
        Trace.with_span ~cat:"solver" setup.span
          ~args:[ ("vars", Trace.Int n) ]
          (fun () -> h.drive (fun () -> search 0 = Found))
      with Abort -> Aborted
    in
    (match outcome with
    | Solution a -> assert (Compiled.verify comp a)
    | Unsatisfiable | Aborted -> ());
    finish outcome
