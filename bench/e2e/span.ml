(* Real-time spans recorded by the benchmark around its own calls into
   each layer of ospack. Spans are kept in memory and only summarized
   (self time per name) or exported (Chrome trace events) once the run is
   over, so recording costs two clock reads and one small allocation. A
   disabled recorder runs the wrapped function and nothing else. *)

module Json = Ospack_json.Json

type span = {
  id : int;
  parent : int;  (** [-1] for the root span of an op *)
  op : int;
  mutable name : string;
  t0 : int64;  (** monotonic ns *)
  mutable t1 : int64;
}

type t = {
  on : bool;
  mutable op : int;
  mutable stack : span list;
  mutable spans : span list;  (** completed, newest first *)
  mutable next : int;
}

let create ~on = { on; op = 0; stack = []; spans = []; next = 0 }
let now () = Monotonic_clock.now ()
let set_op t op = t.op <- op

let span t name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = t.next; parent; op = t.op; name; t0 = now (); t1 = 0L } in
    t.next <- t.next + 1;
    t.stack <- s :: t.stack;
    let finish () =
      s.t1 <- now ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Some layers are only known after the call returns (a ccache lookup
   is a hit or a miss); the caller renames the span it just closed. *)
let rename_last t name =
  match t.spans with s :: _ when t.on -> s.name <- name | _ -> ()

let duration s = Int64.sub s.t1 s.t0

(* Self time = duration minus the time covered by direct children, summed
   per span name. An op's root span covers the whole op, so its self time
   is the part of the op no layer span claimed: it is reported as
   "unattributed", and the per-name totals add up to the ops' wall time. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Int64.add (duration s)
             (Option.value (Hashtbl.find_opt child s.parent) ~default:0L)))
    t.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        Int64.sub (duration s)
          (Option.value (Hashtbl.find_opt child s.id) ~default:0L)
      in
      let name = if s.parent < 0 then "unattributed" else s.name in
      let ns, calls =
        Option.value (Hashtbl.find_opt by_name name) ~default:(0L, 0)
      in
      Hashtbl.replace by_name name (Int64.add ns self, calls + 1))
    t.spans;
  by_name

let to_chrome t =
  let spans =
    List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) t.spans
  in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0L in
  let us ns = Int64.to_float ns /. 1000.0 in
  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("cat", Json.String (layer s.name));
                   ("ph", Json.String "X");
                   ("ts", Json.Float (us (Int64.sub s.t0 origin)));
                   ("dur", Json.Float (us (duration s)));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("op", Json.Int s.op);
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.String "ms");
    ]
