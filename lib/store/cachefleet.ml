(* A simulated mirror fleet in front of the binary cache: ordered
   mirrors with per-mirror latency and bandwidth, a deterministic
   zipf-popularity request trace interleaved over many clients on the
   virtual clock, typed retry/failover on transient faults, and
   source-build fallback for entries no mirror carries. Everything is
   seeded and float-grid-disciplined, so a trace replays byte-identically
   — the property the bench double-run gate and the byte diff of the
   fleet document against BENCH_buildcache.json rely on. *)

module Obs = Ospack_obs.Obs
module Json = Ospack_json.Json

type mirror = {
  m_name : string;
  m_cache : Buildcache.t;
  m_latency : float;  (** virtual seconds per probe round-trip *)
  m_byte_rate : float;  (** transfer bandwidth, bytes per virtual second *)
  mutable m_probes : int;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_faults : int;
  mutable m_bytes : int;
}

type t = { mirrors : mirror list; obs : Obs.t }

let mirror ?(latency = 0.05) ?(byte_rate = 1_000_000.0) ~name cache =
  {
    m_name = name;
    m_cache = cache;
    m_latency = latency;
    m_byte_rate = byte_rate;
    m_probes = 0;
    m_hits = 0;
    m_misses = 0;
    m_faults = 0;
    m_bytes = 0;
  }

let create ?(obs = Obs.disabled) mirrors = { mirrors; obs }

type config = {
  fc_seed : int;  (** PRNG seed; same seed, same trace *)
  fc_clients : int;  (** distinct client identities the trace draws from *)
  fc_requests : int;  (** total requests to generate *)
  fc_zipf_s : float;  (** zipf exponent: request popularity skew *)
  fc_fault_every : int;
      (** inject a two-probe burst of transient faults every Nth probe
          fleet-wide (0 = never) — the [Vfs.Fault_injected]-shaped
          failures that drive typed retry/failover *)
  fc_mean_gap : float;  (** mean virtual seconds between arrivals *)
}

let default_config =
  {
    fc_seed = 42;
    fc_clients = 1000;
    fc_requests = 2000;
    fc_zipf_s = 1.1;
    fc_fault_every = 0;
    fc_mean_gap = 0.01;
  }

type item = {
  it_name : string;  (** package name, for reporting *)
  it_hash : string;  (** the cache entry requested *)
  it_build_seconds : float;  (** source-build cost if no mirror has it *)
}

type report = {
  rp_requests : int;
  rp_clients : int;  (** distinct clients that issued a request *)
  rp_hits : int;
  rp_retries : int;  (** same-mirror second tries after a fault *)
  rp_failovers : int;  (** moves to the next mirror after a fault *)
  rp_fallback_builds : int;  (** requests no mirror served *)
  rp_fallback_seconds : float;
  rp_bytes : int;
  rp_elapsed : float;  (** virtual seconds the whole trace spanned *)
  rp_by_package : (string * int) list;
      (** requests per package, most-requested first *)
  rp_mirrors : mirror list;  (** in fleet order, with final accounting *)
}

(* ------------------------------------------------------------------ *)
(* Deterministic PRNG: a plain 31-bit LCG — quality is irrelevant,
   replayability is everything. *)

let lcg_m = 0x4000_0000 (* 2^30 *)

let lcg state = ((1103515245 * state) + 12345) land (lcg_m - 1)

(* zipf(s) over ranks 1..n: weight 1/rank^s, sampled by inverting the
   cumulative distribution. Items keep their given order, so rank 1 =
   first item = most popular. *)
let zipf_cdf s n =
  let weights =
    Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  Array.map
    (fun w ->
      acc := !acc +. (w /. total);
      !acc)
    weights

let pick cdf u =
  let n = Array.length cdf in
  let rec go i =
    if i >= n - 1 then n - 1 else if u < cdf.(i) then i else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)

let run t config items =
  if items = [] then invalid_arg "Cachefleet.run: no items";
  let item_arr = Array.of_list items in
  let cdf = zipf_cdf config.fc_zipf_s (Array.length item_arr) in
  let state = ref (if config.fc_seed = 0 then 1 else config.fc_seed) in
  let next_u () =
    state := lcg !state;
    float_of_int !state /. float_of_int lcg_m
  in
  let elapsed = ref 0.0 in
  let advance dt =
    elapsed := !elapsed +. dt;
    Obs.advance t.obs dt
  in
  let hits = ref 0
  and retries = ref 0
  and failovers = ref 0
  and fallbacks = ref 0
  and fallback_seconds = ref 0.0
  and bytes = ref 0
  and probe_no = ref 0
  and clients = Hashtbl.create 64
  and per_pkg = Hashtbl.create 16 in
  (* one probe against one mirror; [fault] injects the transient error
     the typed failover path classifies with {!Buildcache.transient} *)
  let probe m ~hash ~fault =
    m.m_probes <- m.m_probes + 1;
    if fault then begin
      m.m_faults <- m.m_faults + 1;
      Obs.count t.obs "fleet.faults" 1;
      advance m.m_latency;
      Error
        (Buildcache.Cache_io
           {
             io_op = "read";
             io_path = Buildcache.entry_path m.m_cache hash;
             io_cause =
               Ospack_vfs.Vfs.Fault_injected
                 { fi_op = "read"; fi_path = Buildcache.root m.m_cache };
           })
    end
    else
      match Buildcache.entry_size m.m_cache ~hash with
      | Some b ->
          m.m_hits <- m.m_hits + 1;
          m.m_bytes <- m.m_bytes + b;
          advance (m.m_latency +. (float_of_int b /. m.m_byte_rate));
          Ok b
      | None ->
          m.m_misses <- m.m_misses + 1;
          advance m.m_latency;
          Error (Buildcache.Cache_missing hash)
  in
  Obs.span t.obs ~cat:"fleet"
    ~args:
      [
        ("requests", string_of_int config.fc_requests);
        ("mirrors", string_of_int (List.length t.mirrors));
      ]
    "fleet.trace"
  @@ fun () ->
  for _r = 0 to config.fc_requests - 1 do
    (* arrival: a seeded think-time gap, then a client and a package
       drawn from the same stream *)
    advance (config.fc_mean_gap *. (0.5 +. next_u ()));
    state := lcg !state;
    Hashtbl.replace clients (!state mod max 1 config.fc_clients) ();
    let item = item_arr.(pick cdf (next_u ())) in
    Hashtbl.replace per_pkg item.it_name
      (1 + try Hashtbl.find per_pkg item.it_name with Not_found -> 0);
    Obs.count t.obs "fleet.requests" 1;
    (* a two-probe fault burst every Nth probe: the first fault trips the
       retry, and when the retry lands inside the same burst the client
       fails over — so both recovery paths run on a deterministic trace *)
    let faulty () =
      incr probe_no;
      config.fc_fault_every > 0 && !probe_no mod config.fc_fault_every < 2
    in
    let served b =
      incr hits;
      bytes := !bytes + b;
      Obs.count t.obs "fleet.hits" 1
    in
    (* the fallback chain: walk mirrors in order; a transient fault is
       retried once on the same mirror, a second fault fails over to the
       next; a fully-missed entry falls back to a source build *)
    let rec walk = function
      | [] ->
          incr fallbacks;
          fallback_seconds := !fallback_seconds +. item.it_build_seconds;
          Obs.count t.obs "fleet.fallback_builds" 1;
          advance item.it_build_seconds
      | m :: rest -> (
          match probe m ~hash:item.it_hash ~fault:(faulty ()) with
          | Ok b -> served b
          | Error e when Buildcache.transient e -> (
              incr retries;
              Obs.count t.obs "fleet.retries" 1;
              match probe m ~hash:item.it_hash ~fault:(faulty ()) with
              | Ok b -> served b
              | Error e2 ->
                  if Buildcache.transient e2 then begin
                    incr failovers;
                    Obs.count t.obs "fleet.failovers" 1
                  end;
                  walk rest)
          | Error _ -> walk rest)
    in
    walk t.mirrors
  done;
  List.iter
    (fun m ->
      let pfx = "fleet.mirror." ^ m.m_name in
      Obs.count t.obs (pfx ^ ".probes") m.m_probes;
      Obs.count t.obs (pfx ^ ".hits") m.m_hits;
      Obs.count t.obs (pfx ^ ".misses") m.m_misses;
      Obs.count t.obs (pfx ^ ".faults") m.m_faults;
      Obs.count t.obs (pfx ^ ".bytes") m.m_bytes)
    t.mirrors;
  {
    rp_requests = config.fc_requests;
    rp_clients = Hashtbl.length clients;
    rp_hits = !hits;
    rp_retries = !retries;
    rp_failovers = !failovers;
    rp_fallback_builds = !fallbacks;
    rp_fallback_seconds = !fallback_seconds;
    rp_bytes = !bytes;
    rp_elapsed = !elapsed;
    rp_by_package =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_pkg []
      |> List.sort (fun (a, na) (b, nb) ->
             if na <> nb then compare nb na else String.compare a b);
    rp_mirrors = t.mirrors;
  }

let hit_rate r =
  if r.rp_requests = 0 then 0.0
  else float_of_int r.rp_hits /. float_of_int r.rp_requests

let report_to_string r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "fleet: %d requests from %d clients, %d hits (%.1f%% hit rate), %d \
        source builds, %d retries, %d failovers, %d bytes served\n"
       r.rp_requests r.rp_clients r.rp_hits
       (100.0 *. hit_rate r)
       r.rp_fallback_builds r.rp_retries r.rp_failovers r.rp_bytes);
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf
           "  mirror %-10s %6d probes  %6d hits  %6d misses  %4d faults  %9d \
            bytes\n"
           m.m_name m.m_probes m.m_hits m.m_misses m.m_faults m.m_bytes))
    r.rp_mirrors;
  List.iter
    (fun (name, n) ->
      Buffer.add_string b (Printf.sprintf "  requests %-12s %6d\n" name n))
    r.rp_by_package;
  Buffer.contents b

let report_to_json r =
  Json.Obj
    [
      ("requests", Json.Int r.rp_requests);
      ("clients", Json.Int r.rp_clients);
      ("hits", Json.Int r.rp_hits);
      ("hit_rate", Json.fixed ~decimals:4 (hit_rate r));
      ("retries", Json.Int r.rp_retries);
      ("failovers", Json.Int r.rp_failovers);
      ("fallback_builds", Json.Int r.rp_fallback_builds);
      ("fallback_seconds", Json.fixed ~decimals:3 r.rp_fallback_seconds);
      ("bytes", Json.Int r.rp_bytes);
      ("elapsed_virtual_seconds", Json.fixed ~decimals:3 r.rp_elapsed);
      ( "mirrors",
        Json.List
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("name", Json.String m.m_name);
                   ("probes", Json.Int m.m_probes);
                   ("hits", Json.Int m.m_hits);
                   ("misses", Json.Int m.m_misses);
                   ("faults", Json.Int m.m_faults);
                   ("bytes", Json.Int m.m_bytes);
                 ])
             r.rp_mirrors) );
      ( "by_package",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.rp_by_package) );
    ]
