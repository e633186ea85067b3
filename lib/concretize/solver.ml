module Obs = Ospack_obs.Obs
module IntSet = Set.Make (Int)

type outcome = Sat of bool array | Unsat of int list

type stats = {
  s_decisions : int;
  s_propagations : int;
  s_conflicts : int;
  s_restarts : int;
}

(* The solver's storage, kept from one solve to the next.

   Every clause's literals sit in one arena, [lits], the clause [ci]
   at [cstart.(ci)] for [clen.(ci)] literals, its two watched literals
   first. An input clause's origin is the int [corigin.(ci)]; a learned
   clause (index [learned_base] and up) keeps its origin set in
   [learned_origins]. Each literal's watch list is a region of [watch]
   at [wstart] holding [wlen] of [wcap] clause indices; a full list
   moves to the end of [watch] with twice the room, keeping its order.

   A solve resets the lengths and the per-variable tables it uses and
   grows any table its problem does not fit, so after the largest
   problem a solve allocates none of this. Fresh tables per solve were
   slower: every array over 256 words goes straight to the major heap,
   and one that points at young values (the old clause records) keeps
   them alive through the remembered set until the next minor
   collection promotes them. Only the two origin tables hold pointers,
   and only for learned clauses and level-0 variables. *)
type workspace = {
  mutable nvars : int;
  mutable lits : int array;
  mutable lits_len : int;
  mutable cstart : int array;
  mutable clen : int array;
  mutable corigin : int array;
  mutable nclauses : int;
  mutable learned_base : int;
  mutable learned_origins : IntSet.t array;
  mutable watch : int array;
  mutable watch_len : int;
  mutable wstart : int array;  (* indexed by [lit_index] *)
  mutable wlen : int array;
  mutable wcap : int array;
  mutable assign : int array;  (* 0 unassigned, 1 true, -1 false *)
  mutable level : int array;
  mutable reason : int array;
  mutable var_origins : IntSet.t option array;
      (* transitive origin closure of a level-0 assignment, computed on
         demand (see [level0_origins]) *)
  mutable seen : bool array;
  mutable trail : int array;
  mutable trail_sz : int;
  mutable trail_lim : int array;  (* trail size at each decision *)
  mutable nlevels : int;
  mutable qhead : int;
  mutable order : int array;
  mutable order_len : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        nvars = 0;
        lits = [||];
        lits_len = 0;
        cstart = [||];
        clen = [||];
        corigin = [||];
        nclauses = 0;
        learned_base = 0;
        learned_origins = [||];
        watch = [||];
        watch_len = 0;
        wstart = [||];
        wlen = [||];
        wcap = [||];
        assign = [||];
        level = [||];
        reason = [||];
        var_origins = [||];
        seen = [||];
        trail = [||];
        trail_sz = 0;
        trail_lim = [||];
        nlevels = 0;
        qhead = 0;
        order = [||];
        order_len = 0;
        n_decisions = 0;
        n_propagations = 0;
        n_conflicts = 0;
        n_restarts = 0;
      })

(* [a] with room for [n] elements, its first [used] kept *)
let grow a n used fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 used;
    b
  end

let check_lit w l =
  if l = 0 || abs l > w.nvars then
    invalid_arg (Printf.sprintf "Solver.solve: literal %d (nvars %d)" l w.nvars)

let reset w ~nvars ~order =
  let last = w.nvars + 1 in
  w.nvars <- nvars;
  let nv = nvars + 1 in
  if Array.length w.assign < nv then begin
    let nv = max nv (2 * Array.length w.assign) in
    w.assign <- Array.make nv 0;
    w.level <- Array.make nv 0;
    w.reason <- Array.make nv (-1);
    w.var_origins <- Array.make nv None;
    w.seen <- Array.make nv false;
    w.trail <- Array.make nv 0;
    w.trail_lim <- Array.make nv 0;
    w.wstart <- Array.make (2 * nv) 0;
    w.wlen <- Array.make (2 * nv) 0;
    w.wcap <- Array.make (2 * nv) 0
  end
  else begin
    Array.fill w.assign 0 nv 0;
    Array.fill w.reason 0 nv (-1);
    (* up to the last solve's size too: drop all its origin sets *)
    Array.fill w.var_origins 0 (max nv last) None;
    Array.fill w.seen 0 nv false;
    Array.fill w.wlen 0 (2 * nv) 0;
    Array.fill w.wcap 0 (2 * nv) 0
  end;
  (* drop the last solve's learned origin sets *)
  if w.learned_base < w.nclauses then
    Array.fill w.learned_origins 0 (w.nclauses - w.learned_base) IntSet.empty;
  w.lits_len <- 0;
  w.nclauses <- 0;
  w.learned_base <- max_int;
  w.watch_len <- 0;
  w.trail_sz <- 0;
  w.nlevels <- 0;
  w.qhead <- 0;
  w.order_len <- 0;
  List.iter
    (fun l ->
      check_lit w l;
      w.order <- grow w.order (w.order_len + 1) w.order_len 0;
      w.order.(w.order_len) <- l;
      w.order_len <- w.order_len + 1)
    order;
  w.n_decisions <- 0;
  w.n_propagations <- 0;
  w.n_conflicts <- 0;
  w.n_restarts <- 0

exception Found_sat
exception Found_unsat of IntSet.t

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let lit_value w l =
  let a = w.assign.(abs l) in
  if a = 0 then 0 else if (l > 0) = (a > 0) then 1 else -1

let watch w l ci =
  let i = lit_index l in
  let len = w.wlen.(i) in
  if len = w.wcap.(i) then begin
    let cap = max 4 (2 * len) in
    w.watch <- grow w.watch (w.watch_len + cap) w.watch_len 0;
    Array.blit w.watch w.wstart.(i) w.watch w.watch_len len;
    w.wstart.(i) <- w.watch_len;
    w.wcap.(i) <- cap;
    w.watch_len <- w.watch_len + cap
  end;
  w.watch.(w.wstart.(i) + len) <- ci;
  w.wlen.(i) <- len + 1

(* the clause whose [len] literals were just written at the arena's end *)
let add_clause_store w len origin =
  let ci = w.nclauses in
  if ci = Array.length w.cstart then begin
    w.cstart <- grow w.cstart (ci + 1) ci 0;
    w.clen <- grow w.clen (ci + 1) ci 0;
    w.corigin <- grow w.corigin (ci + 1) ci 0
  end;
  let s = w.lits_len in
  w.cstart.(ci) <- s;
  w.clen.(ci) <- len;
  w.corigin.(ci) <- origin;
  w.lits_len <- s + len;
  w.nclauses <- ci + 1;
  if len >= 2 then begin
    watch w w.lits.(s) ci;
    watch w w.lits.(s + 1) ci
  end;
  ci

let add_origins w ci o =
  if ci < w.learned_base then IntSet.add w.corigin.(ci) o
  else IntSet.union w.learned_origins.(ci - w.learned_base) o

let enqueue w l ci =
  let v = abs l in
  w.assign.(v) <- (if l > 0 then 1 else -1);
  w.level.(v) <- w.nlevels;
  w.reason.(v) <- ci;
  w.trail.(w.trail_sz) <- l;
  w.trail_sz <- w.trail_sz + 1

(* The origins of every clause in [v]'s level-0 implication graph:
   its reason's and, transitively, those of the other literals' level-0
   assignments. Level 0 is never undone, so each set is computed once. *)
let rec level0_origins w v =
  match w.var_origins.(v) with
  | Some o -> o
  | None ->
      let ci = w.reason.(v) in
      let s = w.cstart.(ci) in
      let o = ref (add_origins w ci IntSet.empty) in
      for k = s to s + w.clen.(ci) - 1 do
        let q = abs w.lits.(k) in
        if q <> v then o := IntSet.union !o (level0_origins w q)
      done;
      w.var_origins.(v) <- Some !o;
      !o

let cancel_until w lvl =
  if w.nlevels > lvl then begin
    let bound = w.trail_lim.(lvl) in
    for i = w.trail_sz - 1 downto bound do
      let v = abs w.trail.(i) in
      w.assign.(v) <- 0;
      w.reason.(v) <- -1
    done;
    w.trail_sz <- bound;
    w.qhead <- bound;
    w.nlevels <- lvl
  end

(* Returns the index of the conflicting clause, or -1. A clause whose
   watch moves is pushed onto another literal's list, which may move
   that list or grow [w.watch]: the list being scanned stays where it is,
   but [w.watch] is re-read at every access. *)
let propagate w =
  let confl = ref (-1) in
  while !confl < 0 && w.qhead < w.trail_sz do
    let p = w.trail.(w.qhead) in
    w.qhead <- w.qhead + 1;
    w.n_propagations <- w.n_propagations + 1;
    let false_lit = -p in
    let wi = lit_index false_lit in
    let base = w.wstart.(wi) in
    let n = w.wlen.(wi) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let ci = w.watch.(base + i) in
      if !confl >= 0 then begin
        (* conflict already found this pass: keep remaining watches *)
        w.watch.(base + !j) <- ci;
        incr j
      end
      else begin
        let lits = w.lits in
        let s = w.cstart.(ci) in
        if lits.(s) = false_lit then begin
          lits.(s) <- lits.(s + 1);
          lits.(s + 1) <- false_lit
        end;
        if lit_value w lits.(s) = 1 then begin
          w.watch.(base + !j) <- ci;
          incr j
        end
        else begin
          let e = s + w.clen.(ci) in
          let k = ref (s + 2) in
          while !k < e && lit_value w lits.(!k) = -1 do
            incr k
          done;
          if !k < e then begin
            (* found a new watch; clause leaves this list *)
            lits.(s + 1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch w lits.(s + 1) ci
          end
          else if lit_value w lits.(s) = -1 then begin
            w.watch.(base + !j) <- ci;
            incr j;
            confl := ci;
            w.qhead <- w.trail_sz
          end
          else begin
            w.watch.(base + !j) <- ci;
            incr j;
            enqueue w lits.(s) ci
          end
        end
      end
    done;
    w.wlen.(wi) <- !j
  done;
  !confl

(* 1-UIP conflict analysis. Returns (learned lits, uip first;
   backjump level; union of origins of every clause resolved). *)
let analyze w confl =
  let learnt = ref [] in
  let origins = ref IntSet.empty in
  let counter = ref 0 in
  let p = ref 0 in
  let ci = ref confl in
  let index = ref (w.trail_sz - 1) in
  let btlevel = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    origins := add_origins w !ci !origins;
    let s = w.cstart.(!ci) in
    for k = s to s + w.clen.(!ci) - 1 do
      let q = w.lits.(k) in
      if q <> !p then begin
        let v = abs q in
        if w.level.(v) = 0 then
          (* dropped from the learned clause, but its level-0
             justification is part of the refutation *)
          origins := IntSet.union !origins (level0_origins w v)
        else if not w.seen.(v) then begin
          w.seen.(v) <- true;
          if w.level.(v) = w.nlevels then incr counter
          else begin
            learnt := q :: !learnt;
            if w.level.(v) > !btlevel then btlevel := w.level.(v)
          end
        end
      end
    done;
    while not w.seen.(abs w.trail.(!index)) do
      decr index
    done;
    p := w.trail.(!index);
    decr index;
    w.seen.(abs !p) <- false;
    decr counter;
    if !counter = 0 then continue_ := false else ci := w.reason.(abs !p)
  done;
  (* only the learnt clause's lower-level literals are still marked *)
  List.iter (fun q -> w.seen.(abs q) <- false) !learnt;
  (- !p :: !learnt, !btlevel, !origins)

(* conflict at level 0: walk level-0 justifications *)
let final_origins w confl =
  let o = ref (add_origins w confl IntSet.empty) in
  let s = w.cstart.(confl) in
  for k = s to s + w.clen.(confl) - 1 do
    o := IntSet.union !o (level0_origins w (abs w.lits.(k)))
  done;
  !o

let assert_unit w l ci =
  match lit_value w l with
  | 1 -> ()
  | 0 -> enqueue w l ci
  | _ -> raise (Found_unsat (add_origins w ci (level0_origins w (abs l))))

let rec copy w e = function
  | [] -> e
  | l :: rest ->
      check_lit w l;
      w.lits <- grow w.lits (e + 1) e 0;
      w.lits.(e) <- l;
      copy w (e + 1) rest

(* [learnt] (uip first) stored as a learned clause; a unit one's [btlevel]
   is 0 *)
let record w learnt btlevel origins =
  match learnt with
  | [] -> raise (Found_unsat origins)
  | l :: _ ->
      cancel_until w btlevel;
      let s = w.lits_len in
      let len = copy w s learnt - s in
      let li = w.nclauses - w.learned_base in
      w.learned_origins <- grow w.learned_origins (li + 1) li IntSet.empty;
      w.learned_origins.(li) <- origins;
      if len = 1 then assert_unit w l (add_clause_store w 1 (-1))
      else begin
        (* watch invariant: position 1 holds a highest-level literal *)
        let lits = w.lits in
        let mi = ref (s + 1) in
        for k = s + 2 to s + len - 1 do
          if w.level.(abs lits.(k)) > w.level.(abs lits.(!mi)) then mi := k
        done;
        let t = lits.(s + 1) in
        lits.(s + 1) <- lits.(!mi);
        lits.(!mi) <- t;
        enqueue w l (add_clause_store w len (-1))
      end

(* the first literal of the order whose variable is unassigned, else the
   first unassigned variable negated, else 0 *)
let rec decide_next w nvars i =
  if i < w.order_len then
    let l = w.order.(i) in
    if w.assign.(abs l) = 0 then l else decide_next w nvars (i + 1)
  else if i - w.order_len >= nvars then 0
  else
    let v = i - w.order_len + 1 in
    if w.assign.(v) = 0 then -v else decide_next w nvars (i + 1)

(* Copies an input clause to the arena's end, sorted and without
   duplicates, and returns its length, or -1 for a tautology (which
   leaves the arena as it was). *)
let load_clause w lits =
  let s = w.lits_len in
  let e = copy w s lits in
  let a = w.lits in
  (* insertion sort: linear on ascending input (most encoder clauses),
     quadratic only in one clause's length; the longest unsorted
     clauses, CEGAR's blocking clauses, hold one literal per provider or
     version choice of a model *)
  for k = s + 1 to e - 1 do
    let x = a.(k) in
    let m = ref k in
    while !m > s && a.(!m - 1) > x do
      a.(!m) <- a.(!m - 1);
      decr m
    done;
    a.(!m) <- x
  done;
  let e =
    if e = s then e
    else begin
      let d = ref (s + 1) in
      for k = s + 1 to e - 1 do
        if a.(k) <> a.(!d - 1) then begin
          a.(!d) <- a.(k);
          incr d
        end
      done;
      !d
    end
  in
  (* A tautology holds some literal and its negation. The negative
     literals read back to front and the positive ones are both
     ascending in magnitude, so one merge of the two answers it. *)
  let p = ref s in
  while !p < e && a.(!p) < 0 do
    incr p
  done;
  let n = ref (!p - 1) in
  while !n >= s && !p < e && -a.(!n) <> a.(!p) do
    if -a.(!n) < a.(!p) then decr n else incr p
  done;
  if !n >= s && !p < e then -1 else e - s

let solve ?(obs = Obs.disabled) ~nvars ~clauses:input ~order () =
  let w = Domain.DLS.get key in
  reset w ~nvars ~order;
  let result =
    try
      (* load the problem *)
      List.iter
        (fun (lits, origin) ->
          match load_clause w lits with
          | -1 -> ()
          | 0 -> raise (Found_unsat (IntSet.singleton origin))
          | 1 ->
              let l = w.lits.(w.lits_len) in
              assert_unit w l (add_clause_store w 1 origin)
          | len -> ignore (add_clause_store w len origin))
        input;
      w.learned_base <- w.nclauses;
      let budget = ref 100 in
      let since_restart = ref 0 in
      let rec search () =
        let confl = propagate w in
        if confl >= 0 then begin
          w.n_conflicts <- w.n_conflicts + 1;
          if w.nlevels = 0 then raise (Found_unsat (final_origins w confl));
          let learnt, btlevel, origins = analyze w confl in
          record w learnt btlevel origins;
          incr since_restart;
          if !since_restart >= !budget then begin
            w.n_restarts <- w.n_restarts + 1;
            budget := !budget * 3 / 2;
            since_restart := 0;
            cancel_until w 0
          end;
          search ()
        end
        else
          match decide_next w nvars 0 with
          | 0 -> raise Found_sat
          | l ->
              w.n_decisions <- w.n_decisions + 1;
              w.trail_lim.(w.nlevels) <- w.trail_sz;
              w.nlevels <- w.nlevels + 1;
              enqueue w l (-1);
              search ()
      in
      search ()
    with
    | Found_sat ->
        let model = Array.make (nvars + 1) false in
        for v = 1 to nvars do
          model.(v) <- w.assign.(v) > 0
        done;
        Sat model
    | Found_unsat origins -> Unsat (IntSet.elements origins)
  in
  Obs.count obs "solver.decisions" w.n_decisions;
  Obs.count obs "solver.propagations" w.n_propagations;
  Obs.count obs "solver.conflicts" w.n_conflicts;
  Obs.count obs "solver.restarts" w.n_restarts;
  ( result,
    {
      s_decisions = w.n_decisions;
      s_propagations = w.n_propagations;
      s_conflicts = w.n_conflicts;
      s_restarts = w.n_restarts;
    } )
