(* The measurement loop of the end-to-end benchmark and the metrics it
   reports.

   One process, one thread, closed loop: the next op starts when the
   previous one (and its correctness check) has finished. Set-up runs
   at least [setup_reps] times and for at least [setup_window_s] seconds
   and reports the median; the timed loop then runs ops until [seconds]
   of wall time have passed and the current session is complete. Only
   the op itself is timed; input generation and preparation, checks and
   cleanup run outside the timed region but inside the [seconds] budget,
   so a run's length does not depend on the commit's speed. *)

module Json = Ospack_json.Json

let setup_reps = 5

(* On a shared 2-core VM the speed drifts in phases of seconds to
   minutes, and a 10 ms set-up reads 50 % slower in a slow phase.
   Spreading the repetitions over seconds makes the median cover the
   short phases. No [Gc.full_major] runs between them: after a hundred
   forced major collections the OCaml 5.1 runtime's major-GC pacing
   lags, and the heap of the timed loop that follows grows twenty-fold. *)
let setup_window_s = 2.0
let warmup_ops = 20

(* name, unit *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
    ("peak_heap_mb", "MB");
  ]

type agg =
  | Self of string  (** self ms per op of the spans with this name *)
  | Op_wall  (** traced op wall ms per op *)
  | Per_op of string  (** a counter's sum per op *)
  | Per_kib of string  (** [<k>.ns] per KiB of [<k>.bytes] *)
  | Ratio of string * string

type layer = {
  l_name : string;
  l_unit : string;
  l_better : string;
  l_module : string;  (** the ospack module the number belongs to *)
  l_moves : string;  (** the end-to-end metric and workload it should move *)
  l_agg : agg;
}

let layer ?(unit = "count") ?(better = "lower") l_name l_module l_moves l_agg =
  { l_name; l_unit = unit; l_better = better; l_module; l_moves; l_agg }

let self span m moves = layer ~unit:"ms" (span ^ ".ms") m moves (Self span)
let count ?unit ?better name m moves = layer ?unit ?better name m moves (Per_op name)
let unit_cost name m moves k = layer ~unit:"ns/KiB" name m moves (Per_kib k)

let env_moves = "env-build and env-cache-pull op_p50_ms"
let spec_p50 = "spec-stream op_p50_ms"
let spec_p99 = "spec-stream op_p99_ms, ops_per_s"
let solve_moves = "solve-conflict op_p50_ms, ops_per_s; 0 on the other workloads"
let not_attribution = "unit cost, not an attribution: "

let per_layer =
  let ctx = "Ospack.Context" and env = "Ospack.Environment" in
  let vfs = "Ospack_vfs.Vfs" and inst = "Ospack_store.Installer" in
  let conc = "Ospack_concretize.Concretizer" and cc = "Ospack_concretize.Ccache" in
  [
    self "core.Context.create" ctx
      "env-build op_p50_ms (<1%), env-cache-pull op_p50_ms";
    self "core.Environment.create" env "env-build op_p50_ms (<1%)";
    self "core.Environment.add" env "env-build op_p50_ms (<1%)";
    self "core.Environment.load" env "env-cache-pull op_p50_ms";
    self "core.Environment.read_lock" env env_moves;
    self "core.Environment.write_lock" env "env-build op_p50_ms";
    self "vfs.Vfs.lock_copy" vfs "env-build op_p50_ms (<1%)";
    self "concretize.Multiroot" "Ospack_concretize.Multiroot"
      "env-build op_p50_ms; 0 on env-cache-pull";
    self "store.Installer.install_parallel" inst
      "env-build op_p50_ms, ops_per_s; env-cache-pull op_p50_ms (extract path)";
    self "views.Commands.view_closure" "Ospack.Commands" env_moves;
    self "spec.Parser.parse" "Ospack_spec.Parser" spec_p50;
    self "concretize.cached_hit" conc spec_p50;
    self "concretize.cached_miss" conc spec_p99;
    self "core.Context.save_ccache" ctx spec_p99;
    self "concretize.greedy" conc solve_moves;
    self "concretize.Clauses.encode" "Ospack_concretize.Clauses" solve_moves;
    self "concretize.Solver.solve" "Ospack_concretize.Solver" solve_moves;
    self "concretize.cegar_rest" "Ospack_concretize.Backends" solve_moves;
    self "unattributed" "-" "none: the op time no layer span covers, kept <=5%";
    layer ~unit:"ms" "trace.op_wall.ms" "-"
      "the sum of the rows above; against 1000/ops_per_s, the tracing overhead"
      Op_wall;
    count "vfs.write" vfs env_moves;
    count "vfs.read" vfs env_moves;
    count "vfs.stat" vfs env_moves;
    count "vfs.mkdir" vfs env_moves;
    count "vfs.link" vfs env_moves;
    count "vfs.unlink" vfs env_moves;
    count "vfs.readdir" vfs env_moves;
    count "vfs.write_barriers" vfs env_moves;
    count ~unit:"bytes" "store.index_bytes" inst env_moves;
    count "store.nodes_built" inst "env-build ops_per_s; 0 on env-cache-pull";
    count ~better:"higher" "store.nodes_reused" inst "env-build ops_per_s";
    count ~better:"higher" "store.cache_hits" inst "env-cache-pull op_p50_ms";
    count ~unit:"bytes" "store.file_bytes" inst env_moves;
    count "views.links" "Ospack_views.View" env_moves;
    count ~unit:"virtual_s" "sim.serial_s" inst "virtual time: no real-time metric";
    count ~unit:"virtual_s" "sim.makespan_s" inst
      "virtual -j4 makespan: a faster change must not schedule worse";
    count ~better:"higher" "ccache.hits" cc spec_p50;
    count "ccache.misses" cc "spec-stream op_p99_ms";
    layer ~unit:"ratio" ~better:"higher" "ccache.hit_ratio" cc
      "spec-stream ops_per_s"
      (Ratio ("ccache.hits", "ccache.lookups"));
    layer ~unit:"bytes" "ccache.persist_bytes_per_miss" ctx "spec-stream op_p99_ms"
      (Ratio ("ccache.persist_bytes", "ccache.misses"));
    count "solver.decisions" "Ospack_concretize.Solver" solve_moves;
    count "solver.propagations" "Ospack_concretize.Solver" solve_moves;
    count "solver.conflicts" "Ospack_concretize.Solver" solve_moves;
    count "solver.restarts" "Ospack_concretize.Solver" solve_moves;
    count "cegar.greedy_runs" "Ospack_concretize.Backends" solve_moves;
    count "clauses.nvars" "Ospack_concretize.Clauses" solve_moves;
    count "clauses.clauses" "Ospack_concretize.Clauses" solve_moves;
    unit_cost "hash.Sha256.ns_per_kib" "Ospack_hash.Sha256"
      (not_attribution ^ "env-build ops_per_s, spec-stream op_p99_ms")
      "sha";
    unit_cost "json.roundtrip.ns_per_kib" "Ospack_json.Json"
      (not_attribution ^ "env-build ops_per_s, spec-stream op_p99_ms")
      "json";
    unit_cost "store.Buildcache.relocate.ns_per_kib" "Ospack_store.Buildcache"
      (not_attribution ^ "env-cache-pull op_p50_ms")
      "reloc";
  ]

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  report : string;  (** the human-readable table *)
  spans : Span.t;  (** empty unless the run was traced *)
}

let ms_since t0 = Int64.to_float (Int64.sub (Span.now ()) t0) /. 1e6

(* nearest rank *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let run (module W : Workloads.S) ~seed ~seconds ~trace =
  let state = ref None in
  let setup_start = Span.now () in
  let rec setups acc =
    if
      List.length acc >= setup_reps
      && ms_since setup_start >= setup_window_s *. 1000.0
    then acc
    else begin
      state := None;
      let t0 = Span.now () in
      state := Some (W.setup ~seed);
      setups ((ms_since t0 /. 1000.0) :: acc)
    end
  in
  let setup_times = setups [] in
  let setup_s = median setup_times in
  let st = Option.get !state in
  if W.warmup then
    for i = 0 to warmup_ops - 1 do
      let input = W.input st ~stream:1 i in
      W.prepare st input;
      let o = W.run st input in
      (match W.check st input o with
      | Ok () -> ()
      | Error e -> failwith ("warm-up op failed: " ^ e));
      W.cleanup st o
    done;
  let tracer = Span.create ~on:trace in
  let sums = Hashtbl.create 64 in
  let add (k, v) =
    Hashtbl.replace sums k (v +. Option.value (Hashtbl.find_opt sums k) ~default:0.0)
  in
  (* latencies live outside the OCaml heap, so the benchmark's own
     bookkeeping does not make peak_heap_mb grow with the op count *)
  let buffer n = Bigarray.(Array1.create float64 c_layout n) in
  let latencies = ref (buffer 65536) and failed = ref 0 and ops = ref 0 in
  let record ms =
    let n = !ops in
    if n = Bigarray.Array1.dim !latencies then begin
      let a = buffer (2 * n) in
      Bigarray.Array1.blit !latencies (Bigarray.Array1.sub a 0 n);
      latencies := a
    end;
    Bigarray.Array1.set !latencies n ms
  in
  let deadline = Int64.add (Span.now ()) (Int64.of_float (seconds *. 1e9)) in
  while Span.now () < deadline || !ops mod W.session_ops <> 0 do
    let i = !ops in
    if i > 0 && i mod W.session_ops = 0 then W.new_session st;
    let input = W.input st ~stream:0 i in
    W.prepare st input;
    Span.set_op tracer i;
    let t0 = Span.now () in
    let out =
      match
        if trace then
          Span.span tracer ("op " ^ W.name) (fun () -> W.run_traced st tracer input)
        else W.run st input
      with
      | o -> Ok o
      | exception e -> Error (Printexc.to_string e)
    in
    record (ms_since t0);
    let verdict =
      match out with
      | Error e -> Error e
      | Ok o ->
          if trace then List.iter add (W.counters st input o);
          let v =
            match W.check st input o with
            | Error e -> Error e
            | Ok () -> if trace then W.guard st input o else Ok ()
          in
          W.cleanup st o;
          v
    in
    (match verdict with
    | Ok () -> ()
    | Error e ->
        incr failed;
        if !failed <= 5 then
          Printf.eprintf "op %d (%s) failed: %s\n%!" i (W.describe st input) e);
    incr ops
  done;
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let n = !ops in
  let lat = Array.init n (Bigarray.Array1.get !latencies) in
  Array.sort compare lat;
  let timed_ms = Array.fold_left ( +. ) 0.0 lat in
  let fn = float_of_int n in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "== %s, seed %d%s: %d ops in %.1f s of timed work, %d failed" W.name seed
    (if trace then ", traced" else "")
    n (timed_ms /. 1000.0) !failed;
  let metrics =
    if not trace then begin
      let beyond_p99 = n - int_of_float (ceil (0.99 *. fn)) in
      let m =
        [
          ( "setup_s",
            setup_s,
            Printf.sprintf "median of %d set-ups" (List.length setup_times) );
          ("ops_per_s", fn /. (timed_ms /. 1000.0), Printf.sprintf "%d ops" n);
          ("op_p50_ms", percentile lat 0.50, Printf.sprintf "%d samples" n);
          ( "op_p99_ms",
            percentile lat 0.99,
            Printf.sprintf "%d samples, %d beyond p99" n beyond_p99 );
          ("peak_heap_mb", heap_mb, "top of the major heap");
        ]
      in
      List.map
        (fun (name, v, note) ->
          let unit = List.assoc name end_to_end in
          line "%-14s %14.4f %-5s  (%s)" name v unit note;
          (name, v, unit))
        m
    end
    else begin
      let selfs = Span.self_times tracer in
      let get k = Option.value (Hashtbl.find_opt sums k) ~default:0.0 in
      let ratio a b = if b = 0.0 then 0.0 else a /. b in
      line "%-38s %12s %-7s %8s  %-32s %s" "layer metric (per op)" "value" "unit"
        "calls" "module" "should move";
      List.map
        (fun l ->
          let v, calls =
            match l.l_agg with
            | Self s ->
                let ns, calls =
                  Option.value (Hashtbl.find_opt selfs s) ~default:(0L, 0)
                in
                (Int64.to_float ns /. 1e6 /. fn, string_of_int calls)
            | Op_wall -> (timed_ms /. fn, string_of_int n)
            | Per_op k -> (get k /. fn, "")
            | Per_kib k -> (ratio (get (k ^ ".ns")) (get (k ^ ".bytes") /. 1024.0), "")
            | Ratio (a, b) -> (ratio (get a) (get b), "")
          in
          line "%-38s %12.4f %-7s %8s  %-32s %s" l.l_name v l.l_unit calls l.l_module
            l.l_moves;
          (l.l_name, v, l.l_unit))
        per_layer
    end
  in
  {
    attempted = n;
    failed = !failed;
    metrics;
    report = Buffer.contents buf;
    spans = tracer;
  }

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
                r.metrics) );
       ])
