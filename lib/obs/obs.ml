module Json = Ospack_json.Json

(* One recorded event. End events repeat the name/cat of the span they
   close so the Chrome export and the phase aggregation need no stack
   replay guesswork for malformed streams. *)
type event =
  | Begin of {
      name : string;
      cat : string;
      ts : float;
      args : (string * string) list;
    }
  | End of { name : string; cat : string; ts : float }
  | Instant of { name : string; cat : string; ts : float }

type hist = {
  mutable h_n : int;
  mutable h_lo : float;
  mutable h_hi : float;
  mutable h_total : float;
}

type state = {
  tick : float;
  mutable clock : float;
  mutable events : event list;  (* reversed *)
  mutable n_events : int;
  mutable open_spans : (string * string) list;  (* name, cat; innermost first *)
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

type t = state option

let disabled : t = None

let create ?(tick = 1e-6) () : t =
  Some
    {
      tick;
      clock = 0.0;
      events = [];
      n_events = 0;
      open_spans = [];
      counters = Hashtbl.create 16;
      hists = Hashtbl.create 8;
    }

let enabled = function None -> false | Some _ -> true
let now = function None -> 0.0 | Some s -> s.clock

let advance t dt =
  match t with
  | None -> ()
  | Some s -> if dt > 0.0 then s.clock <- s.clock +. dt

let record s ev =
  s.events <- ev :: s.events;
  s.n_events <- s.n_events + 1

(* every event ticks the clock so timestamps are strictly increasing *)
let tick s =
  s.clock <- s.clock +. s.tick;
  s.clock

let span_begin t ?(cat = "ospack") ?(args = []) name =
  match t with
  | None -> ()
  | Some s ->
      let ts = tick s in
      s.open_spans <- (name, cat) :: s.open_spans;
      record s (Begin { name; cat; ts; args })

let span_end t =
  match t with
  | None -> ()
  | Some s -> (
      match s.open_spans with
      | [] -> ()
      | (name, cat) :: rest ->
          let ts = tick s in
          s.open_spans <- rest;
          record s (End { name; cat; ts }))

let span t ?cat ?args name f =
  match t with
  | None -> f ()
  | Some _ -> (
      span_begin t ?cat ?args name;
      match f () with
      | v ->
          span_end t;
          v
      | exception e ->
          span_end t;
          raise e)

let count t name n =
  match t with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.counters name with
      | Some r -> r := !r + n
      | None -> Hashtbl.replace s.counters name (ref n))

let counter t name =
  match t with
  | None -> 0
  | Some s -> (
      match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0)

let counters t =
  match t with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type hist_summary = {
  h_count : int;
  h_min : float;
  h_max : float;
  h_sum : float;
}

let observe t name v =
  match t with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.hists name with
      | Some h ->
          h.h_n <- h.h_n + 1;
          if v < h.h_lo then h.h_lo <- v;
          if v > h.h_hi then h.h_hi <- v;
          h.h_total <- h.h_total +. v
      | None ->
          Hashtbl.replace s.hists name
            { h_n = 1; h_lo = v; h_hi = v; h_total = v })

let histograms t =
  match t with
  | None -> []
  | Some s ->
      Hashtbl.fold
        (fun k h acc ->
          ( k,
            { h_count = h.h_n; h_min = h.h_lo; h_max = h.h_hi;
              h_sum = h.h_total } )
          :: acc)
        s.hists []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let annotate t ?(cat = "note") name =
  match t with
  | None -> ()
  | Some s ->
      let ts = tick s in
      record s (Instant { name; cat; ts })

let events_in_order s = List.rev s.events

(* ---------------- phase aggregation ---------------- *)

type phase_row = {
  ph_name : string;
  ph_count : int;
  ph_total : float;
  ph_self : float;
}

let phase_rows t =
  match t with
  | None -> []
  | Some s ->
      let rows : (string, phase_row) Hashtbl.t = Hashtbl.create 16 in
      let order = ref [] in
      (* order is fixed by each phase's first Begin, so parents list
         before the children that close first *)
      let ensure name =
        if not (Hashtbl.mem rows name) then begin
          order := name :: !order;
          Hashtbl.replace rows name
            { ph_name = name; ph_count = 0; ph_total = 0.0; ph_self = 0.0 }
        end
      in
      let add name total self =
        ensure name;
        let r = Hashtbl.find rows name in
        Hashtbl.replace rows name
          {
            r with
            ph_count = r.ph_count + 1;
            ph_total = r.ph_total +. total;
            ph_self = r.ph_self +. self;
          }
      in
      (* replay the stream with a stack: (name, start, child_time) *)
      let stack = ref [] in
      let close name stop =
        match !stack with
        | [] -> ()
        | (n, start, child) :: rest when n = name ->
            let total = stop -. start in
            add name total (total -. child);
            stack :=
              (match rest with
              | (pn, ps, pchild) :: prest ->
                  (pn, ps, pchild +. total) :: prest
              | [] -> [])
        | _ -> ()
      in
      List.iter
        (function
          | Begin { name; ts; _ } ->
              ensure name;
              stack := (name, ts, 0.0) :: !stack
          | End { name; ts; _ } -> close name ts
          | Instant _ -> ())
        (events_in_order s);
      (* unclosed spans extend to the current clock *)
      List.iter (fun (name, _, _) -> close name s.clock) !stack;
      List.rev_map (fun name -> Hashtbl.find rows name) !order

let timings_table t =
  match phase_rows t with
  | [] -> "(no spans recorded)\n"
  | rows ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %8s %14s %14s\n" "phase" "count" "total(s)"
           "self(s)");
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "%-40s %8d %14.6f %14.6f\n" r.ph_name r.ph_count
               r.ph_total r.ph_self))
        rows;
      Buffer.contents buf

let stats_table t =
  let buf = Buffer.create 256 in
  (match counters t with
  | [] -> Buffer.add_string buf "(no counters recorded)\n"
  | cs ->
      Buffer.add_string buf (Printf.sprintf "%-40s %12s\n" "counter" "value");
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf (Printf.sprintf "%-40s %12d\n" name v))
        cs);
  (match histograms t with
  | [] -> ()
  | hs ->
      Buffer.add_string buf
        (Printf.sprintf "%-40s %8s %12s %12s %12s\n" "histogram" "count" "min"
           "max" "mean");
      List.iter
        (fun (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf "%-40s %8d %12.6f %12.6f %12.6f\n" name h.h_count
               h.h_min h.h_max
               (h.h_sum /. float_of_int (max 1 h.h_count))))
        hs);
  Buffer.contents buf

(* ---------------- JSONL structured-event export ---------------- *)

(* One self-describing JSON object per line, in event order, followed by
   the counter and histogram summaries. Timestamps are virtual seconds on
   the fixed-point grid (the clock ticks in whole microseconds), so the
   log is byte-identical across runs — the machine-readable sibling of
   the Chrome trace, built for line-oriented diffing and appending. *)
let jsonl_event = function
  | Begin { name; cat; ts; args } ->
      Json.Obj
        ([
           ("ev", Json.String "span_begin");
           ("ts", Json.fixed ts);
           ("name", Json.String name);
           ("cat", Json.String cat);
         ]
        @
        match args with
        | [] -> []
        | args ->
            [
              ( "args",
                Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args) );
            ])
  | End { name; cat; ts } ->
      Json.Obj
        [
          ("ev", Json.String "span_end");
          ("ts", Json.fixed ts);
          ("name", Json.String name);
          ("cat", Json.String cat);
        ]
  | Instant { name; cat; ts } ->
      Json.Obj
        [
          ("ev", Json.String "instant");
          ("ts", Json.fixed ts);
          ("name", Json.String name);
          ("cat", Json.String cat);
        ]

let to_jsonl t =
  let buf = Buffer.create 1024 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  (match t with
  | None -> line (Json.Obj [ ("ev", Json.String "meta"); ("format", Json.Int 1) ])
  | Some s ->
      line
        (Json.Obj
           [
             ("ev", Json.String "meta");
             ("format", Json.Int 1);
             ("clock", Json.String "virtual-seconds");
             ("events", Json.Int s.n_events);
           ]);
      List.iter (fun ev -> line (jsonl_event ev)) (events_in_order s);
      List.iter
        (fun (name, v) ->
          line
            (Json.Obj
               [
                 ("ev", Json.String "counter");
                 ("name", Json.String name);
                 ("value", Json.Int v);
               ]))
        (counters t);
      List.iter
        (fun (name, h) ->
          line
            (Json.Obj
               [
                 ("ev", Json.String "histogram");
                 ("name", Json.String name);
                 ("count", Json.Int h.h_count);
                 ("min", Json.fixed h.h_min);
                 ("max", Json.fixed h.h_max);
                 ("sum", Json.fixed h.h_sum);
               ]))
        (histograms t));
  Buffer.contents buf

(* ---------------- Chrome trace-event export ---------------- *)

let us seconds = Json.Float (seconds *. 1e6)

let to_chrome_trace t =
  match t with
  | None -> Json.Obj [ ("traceEvents", Json.List []) ]
  | Some s ->
      let common name cat ph ts =
        [
          ("name", Json.String name);
          ("cat", Json.String cat);
          ("ph", Json.String ph);
          ("ts", us ts);
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
        ]
      in
      let events =
        List.map
          (function
            | Begin { name; cat; ts; args } ->
                Json.Obj
                  (common name cat "B" ts
                  @
                  match args with
                  | [] -> []
                  | args ->
                      [
                        ( "args",
                          Json.Obj
                            (List.map (fun (k, v) -> (k, Json.String v)) args)
                        );
                      ])
            | End { name; cat; ts } -> Json.Obj (common name cat "E" ts)
            | Instant { name; cat; ts } ->
                Json.Obj (common name cat "i" ts @ [ ("s", Json.String "t") ]))
          (events_in_order s)
      in
      Json.Obj
        [
          ("traceEvents", Json.List events);
          ("displayTimeUnit", Json.String "ms");
          ( "ospackCounters",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
          ( "ospackHistograms",
            Json.Obj
              (List.map
                 (fun (k, h) ->
                   ( k,
                     Json.Obj
                       [
                         ("count", Json.Int h.h_count);
                         ("min", Json.Float h.h_min);
                         ("max", Json.Float h.h_max);
                         ("sum", Json.Float h.h_sum);
                       ] ))
                 (histograms t)) );
        ]
