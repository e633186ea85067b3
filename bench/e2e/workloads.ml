(* The four closed-loop workloads of the end-to-end benchmark.

   Each workload drives ospack through its public API from one thread,
   one op at a time. [run] is the untraced op: the call a user makes
   ([Environment.install], [Environment.install_locked], [Ospack.spec],
   [Backends.solve_full]). [run_traced] performs the same op step by step
   through the public pieces those calls are built from, wrapping each
   piece in a span; [guard] proves the step-by-step pipeline still
   produces what the real call produces. [check] validates an op's
   result against a reference that does not come from the code path
   under test, and runs outside the timed region. *)

module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json
module Sha256 = Ospack_hash.Sha256
module Version = Ospack_version.Version
module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Concrete = Ospack_spec.Concrete
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Concretizer = Ospack_concretize.Concretizer
module Backends = Ospack_concretize.Backends
module Clauses = Ospack_concretize.Clauses
module Solver = Ospack_concretize.Solver
module Multiroot = Ospack_concretize.Multiroot
module Ccache = Ospack_concretize.Ccache
module Cerror = Ospack_concretize.Cerror
module I = Ospack_concretize.Concretizer_intf
module Installer = Ospack_store.Installer
module Database = Ospack_store.Database
module Buildcache = Ospack_store.Buildcache
module Loader = Ospack_buildsim.Loader
module Benv = Ospack_buildsim.Env
module Universe = Ospack_repo.Universe
module Obs = Ospack_obs.Obs
module Context = Ospack.Context
module Environment = Ospack.Environment
module Commands = Ospack.Commands

module type S = sig
  type state
  type input
  type output

  val name : string

  val warmup : bool
  (** whether 20 untimed ops from a separate stream precede the timed ones *)

  val session_ops : int
  (** the timed loop stops only at a multiple of this many ops *)

  val new_session : state -> unit
  (** called outside the timed region before each later session *)

  val setup : seed:int -> state
  val input : state -> stream:int -> int -> input
  (** The [i]-th input of a stream: a pure function of the seed, the
      stream and [i] (stream 0 feeds timed ops, stream 1 the warm-up). *)

  val describe : state -> input -> string
  (** the op's input in words, for failure messages *)

  val prepare : state -> input -> unit
  (** called outside the timed region before each op *)

  val run : state -> input -> output
  val run_traced : state -> Span.t -> input -> output

  val counters : state -> input -> output -> (string * float) list
  (** Traced runs only, straight after the op: work counts and the unit
      costs measured on the op's own output. *)

  val check : state -> input -> output -> (unit, string) result
  val guard : state -> input -> output -> (unit, string) result
  val cleanup : state -> output -> unit
end

let ( let* ) = Result.bind
let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)
let vfs_ok what r = ok what (Result.map_error Vfs.error_to_string r)
let rng ~seed ~stream i = Random.State.make [| seed; stream; i |]
let since t0 = Int64.to_float (Int64.sub (Span.now ()) t0)
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* The populations two workloads sample from (the 60 cached envs, the
   query popularity ranking) are drawn with a fixed seed, the same for
   every --seed: a run's p99 is set by the largest members of its
   population, and a population drawn per seed made p99 hinge on a single
   draw. The seed drives the sequence of ops over the population. *)
let population_rng k = Random.State.make [| 0; 2; k |]
let jobs = 4

let universe_ctx () =
  Concretizer.make_ctx ~config:Universe.default_config
    ~compilers:Universe.compilers (Universe.repository ())

(* ------------------------------------------------------------------ *)
(* Environment inputs                                                  *)

let roots_per_env = 6

(* The packages that concretize on their own, split by DAG size into
   [roots_per_env] equal strata. An env draws one root uniformly from
   each stratum, so every env spans small to large roots: per-op work
   then varies far less between seeds than with six unconstrained draws,
   which is what keeps a run's medians steady. *)
let root_strata (cctx : Concretizer.ctx) =
  let sized =
    Repository.package_names cctx.repo
    |> List.filter_map (fun name ->
           match Parser.parse name with
           | Error _ -> None
           | Ok ast -> (
               match Concretizer.concretize cctx ast with
               | Ok c -> Some (Concrete.node_count c, name)
               | Error _ -> None))
    |> List.sort compare |> Array.of_list
  in
  let n = Array.length sized in
  Array.init roots_per_env (fun s ->
      let lo = s * n / roots_per_env and hi = (s + 1) * n / roots_per_env in
      Array.map snd (Array.sub sized lo (hi - lo)))

(* redrawn until the unified solve succeeds, so no timed op fails on a
   root conflict *)
let draw_roots (cctx : Concretizer.ctx) strata st =
  let draw () =
    Array.to_list
      (Array.map (fun a -> a.(Random.State.int st (Array.length a))) strata)
  in
  let solvable roots =
    Result.is_ok
      (Multiroot.solve ~backend:Backends.Greedy ~config:cctx.config
         ~compilers:cctx.compilers ~repo:cctx.repo
         (List.map Parser.parse_exn roots))
  in
  let rec go tries =
    let roots = draw () in
    if solvable roots then roots
    else if tries >= 1000 then failwith "no solvable root set in 1000 draws"
    else go (tries + 1)
  in
  go 1

let make_env ?(sp = fun _ f -> f ()) ctx ~name ~view roots =
  let env =
    sp "core.Environment.create" (fun () ->
        ok "env create" (Environment.create ctx ~name ~view ()))
  in
  List.fold_left
    (fun env root ->
      sp "core.Environment.add" (fun () ->
          ok "env add" (Environment.add ctx env root)))
    env roots

(* [Environment.install_specs]: one parallel install of the merged DAG,
   then the closure-exact view *)
let traced_install tr (ctx : Context.t) (env : Environment.t) pairs =
  let sp name f = Span.span tr name f in
  let concretes = List.map snd pairs in
  let preport =
    ok "install"
      (sp "store.Installer.install_parallel" (fun () ->
           Installer.install_parallel ctx.installer ~jobs concretes))
  in
  if preport.Installer.pr_failures <> [] then
    failwith (Installer.failures_to_string preport.Installer.pr_failures);
  let linked =
    match env.Environment.env_view with
    | None -> 0
    | Some view_root ->
        (ok "view"
           (sp "views.Commands.view_closure" (fun () ->
                Commands.view_closure ctx ~view_root concretes)))
          .Ospack_views.View.mr_linked
  in
  { Environment.er_roots = pairs; er_report = preport; er_linked = linked }

let index_json (ctx : Context.t) =
  Json.to_string (Database.to_json (Installer.database ctx.installer))

let files_under vfs root =
  List.filter_map
    (fun (path, kind) ->
      match kind with
      | Vfs.File -> Some (path, vfs_ok path (Vfs.read_file vfs path))
      | Vfs.Dir | Vfs.Symlink -> None)
    (Vfs.walk vfs root)

(* every file, symlink and directory under a root, with contents *)
let snapshot vfs root =
  Vfs.walk vfs root
  |> List.filter_map (fun (path, kind) ->
         if Filename.basename path = "ccache.json" then None
         else
           match kind with
           | Vfs.File ->
               Some (path ^ " F " ^ vfs_ok path (Vfs.read_file vfs path))
           | Vfs.Symlink ->
               Some (path ^ " L " ^ vfs_ok path (Vfs.readlink vfs path))
           | Vfs.Dir -> Some (path ^ " D"))
  |> String.concat "\n"

(* claim 2: every binary under each root's prefix loads with an empty
   environment *)
let verify_roots (ctx : Context.t) roots =
  let db = Installer.database ctx.installer in
  List.fold_left
    (fun acc (root, c) ->
      let* () = acc in
      match Database.find_by_hash db (Concrete.root_hash c) with
      | None -> fail "%s is not installed" root
      | Some r -> (
          match
            Loader.verify_prefix ctx.vfs ~prefix:r.Database.r_prefix
              ~env:Benv.empty
          with
          | Ok _ -> Ok ()
          | Error (path, f) ->
              fail "%s: %s" path (Loader.failure_to_string f)))
    (Ok ()) roots

let vfs_counters vfs =
  let c = Vfs.counters vfs in
  [
    ("vfs.write", c.write);
    ("vfs.read", c.read);
    ("vfs.stat", c.stat);
    ("vfs.mkdir", c.mkdir);
    ("vfs.link", c.link);
    ("vfs.unlink", c.unlink);
    ("vfs.readdir", c.readdir);
    ("vfs.write_barriers", Vfs.write_barriers vfs);
  ]

let sub_counters after before =
  List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before

let store_counters (ctx : Context.t) (r : Environment.report) =
  let s = Installer.stats ctx.installer in
  let p = r.Environment.er_report in
  [
    ("store.index_bytes", float_of_int (Installer.index_bytes_written ctx.installer));
    ("store.nodes_built", float_of_int s.st_built);
    ("store.nodes_reused", float_of_int s.st_reused);
    ("store.cache_hits", float_of_int s.st_cache_hits);
    ("views.links", float_of_int r.Environment.er_linked);
    ("sim.serial_s", p.Installer.pr_serial_seconds);
    ("sim.makespan_s", p.Installer.pr_makespan);
  ]

(* Unit costs over an op's own output: SHA-256 over every file, a JSON
   parse+print round trip over every [.json] file. Not attributions: the
   op itself hashes and serializes only part of these bytes. *)
let unit_costs files =
  List.concat_map
    (fun (path, content) ->
      let bytes = float_of_int (String.length content) in
      let t0 = Span.now () in
      ignore (Sha256.digest content);
      let sha = [ ("sha.ns", since t0); ("sha.bytes", bytes) ] in
      if Filename.check_suffix path ".json" then begin
        let t0 = Span.now () in
        ignore (Json.to_string (ok path (Json.of_string content)));
        ("json.ns", since t0) :: ("json.bytes", bytes) :: sha
      end
      else sha)
    files

let sum_counters lists =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some x -> Hashtbl.replace tbl k (x +. v)
         | None ->
             order := k :: !order;
             Hashtbl.replace tbl k v))
    lists;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let floats = List.map (fun (k, v) -> (k, float_of_int v))

let file_bytes files =
  float_of_int (List.fold_left (fun n (_, c) -> n + String.length c) 0 files)

(* ------------------------------------------------------------------ *)
(* env-build: unified solve, lock, -j4 build and view, then a replay of
   the lockfile into a second fresh context                           *)

module Env_build = struct
  let session_ops = 1
  let new_session _ = ()

  type state = { seed : int; cctx : Concretizer.ctx; strata : string array array }
  type input = string list

  type output = {
    a : Context.t;
    b : Context.t;
    solved : Environment.report;
    replayed : Environment.report;
  }

  let name = "env-build"
  let warmup = true
  let env_name = "bench"
  let view = "/view"
  let store_root = "/ospack/opt"

  let setup ~seed =
    let cctx = universe_ctx () in
    { seed; cctx; strata = root_strata cctx }

  let input st ~stream i = draw_roots st.cctx st.strata (rng ~seed:st.seed ~stream i)
  let describe _ roots = String.concat ", " roots
  let prepare _ _ = ()

  let copy_lock (a : Context.t) (b : Context.t) =
    let path = Environment.lock_path env_name in
    vfs_ok "lock copy"
      (Vfs.write_file b.vfs path (vfs_ok "lock read" (Vfs.read_file a.vfs path)))

  let run _ roots =
    let a = Context.create () in
    let env = make_env a ~name:env_name ~view roots in
    let solved = ok "env install" (Environment.install ~jobs a env) in
    let b = Context.create () in
    let env_b = make_env b ~name:env_name ~view roots in
    copy_lock a b;
    let replayed =
      match Environment.install_locked ~jobs b env_b with
      | Ok r -> r
      | Error e -> failwith (Environment.locked_error_to_string e)
    in
    { a; b; solved; replayed }

  (* [Environment.install] then [Environment.install_locked], one public
     piece per span *)
  let run_traced _ tr roots =
    let sp name f = Span.span tr name f in
    let a = sp "core.Context.create" (fun () -> Context.create ()) in
    let env = make_env ~sp a ~name:env_name ~view roots in
    let pairs =
      ok "solve"
        (sp "concretize.Multiroot" (fun () ->
             Environment.concretize_roots a env))
    in
    (match
       sp "core.Environment.read_lock" (fun () -> Environment.read_lock a env)
     with
    | Ok lock when lock.Environment.lk_roots = List.map fst pairs ->
        List.iter2
          (fun (_, fresh) (_, locked) ->
            if Concrete.root_hash fresh <> Concrete.root_hash locked then
              failwith "fresh solve disagrees with the lock")
          pairs lock.Environment.lk_specs
    | Ok _ | Error _ -> ());
    ok "write lock"
      (sp "core.Environment.write_lock" (fun () ->
           Environment.write_lock a env pairs));
    let solved = traced_install tr a env pairs in
    let b = sp "core.Context.create" (fun () -> Context.create ()) in
    let env_b = make_env ~sp b ~name:env_name ~view roots in
    sp "vfs.Vfs.lock_copy" (fun () -> copy_lock a b);
    let lock =
      match
        sp "core.Environment.read_lock" (fun () ->
            Environment.read_lock b env_b)
      with
      | Ok lock -> lock
      | Error e -> failwith (Environment.lock_error_to_string e)
    in
    let replayed = traced_install tr b env_b lock.Environment.lk_specs in
    { a; b; solved; replayed }

  (* both filesystems are fresh, so their counters are this op's work *)
  let counters _ _ o =
    let counts = [ floats (vfs_counters o.a.vfs); floats (vfs_counters o.b.vfs) ] in
    let files_a = files_under o.a.vfs store_root in
    sum_counters
      (counts
      @ [
          store_counters o.a o.solved;
          store_counters o.b o.replayed;
          [
            ("store.file_bytes", file_bytes files_a);
            ("store.file_bytes", file_bytes (files_under o.b.vfs store_root));
          ];
          unit_costs files_a;
        ])

  let check _ _ o =
    if snapshot o.a.vfs store_root <> snapshot o.b.vfs store_root then
      Error "replayed store differs from the solved one"
    else if index_json o.a <> index_json o.b then
      Error "replayed index differs from the solved one"
    else if snapshot o.a.vfs view <> snapshot o.b.vfs view then
      Error "replayed view differs from the solved one"
    else verify_roots o.a o.solved.Environment.er_roots

  (* the step-by-step pipeline must write exactly what an untraced
     [Environment.install] on a fresh context writes *)
  let guard _ roots o =
    let c = Context.create () in
    let env = make_env c ~name:env_name ~view roots in
    let* _ = Environment.install ~jobs c env in
    let lock ctx =
      vfs_ok "lock" (Vfs.read_file ctx.Context.vfs (Environment.lock_path env_name))
    in
    if lock c <> lock o.a then Error "traced pipeline wrote a different lock"
    else if index_json c <> index_json o.a then
      Error "traced pipeline wrote a different index"
    else Ok ()

  let cleanup _ _ = ()
end

(* ------------------------------------------------------------------ *)
(* env-cache-pull: replay a locked env, made of some roots of one of 60
   cached envs, from the binary cache into a fresh install root       *)

module Env_cache_pull = struct
  let session_ops = 1
  let new_session _ = ()

  let envs = 60
  let cache_root = "/bc"
  let pull_root = "/pull"
  let src_root = "/ospack/opt"
  let env_name = "pull"
  let view = "/views/pull"

  type state = {
    seed : int;
    src : Context.t;  (** the context that installed and pushed the envs *)
    solved : (string * Concrete.t) list array;
        (** per cached env: its roots as the source install solved them *)
  }

  type input = { env : int; mask : int }
  (** the roots of env [env] whose bit is set in [mask] *)

  type output = {
    ctx : Context.t;
    report : Environment.report;
    vfs_before : (string * int) list;
  }

  let name = "env-cache-pull"
  let warmup = true

  let closure_hashes pairs =
    List.concat_map
      (fun (_, c) ->
        List.map
          (fun (n : Concrete.node) -> Concrete.dag_hash c n.Concrete.name)
          (Concrete.nodes c))
      pairs
    |> List.sort_uniq String.compare

  let setup ~seed =
    let cctx = universe_ctx () in
    let strata = root_strata cctx in
    let src = Context.create ~install_root:src_root ~cache_root () in
    let solved =
      Array.init envs (fun k ->
          let roots = draw_roots cctx strata (population_rng k) in
          let name = Printf.sprintf "src%02d" k in
          let env = make_env src ~name ~view:("/views/" ^ name) roots in
          (ok "env install" (Environment.install ~jobs src env))
            .Environment.er_roots)
    in
    ignore (ok "buildcache push" (Ospack.buildcache_push src));
    (* ops build each view afresh against the pulled prefixes *)
    ignore (Vfs.remove src.vfs ~recursive:true "/views");
    { seed; src; solved }

  (* The 60 envs times their 63 non-empty root subsets spread op cost
     evenly from one small root to the largest env, so the tail is no
     single env's latency. *)
  let input st ~stream i =
    let r = rng ~seed:st.seed ~stream i in
    let env = Random.State.int r envs in
    { env; mask = 1 + Random.State.int r ((1 lsl roots_per_env) - 1) }

  let roots st { env; mask } =
    List.filteri (fun b _ -> mask land (1 lsl b) <> 0) st.solved.(env)

  let describe st input =
    Printf.sprintf "env %d: %s" input.env
      (String.concat ", " (List.map fst (roots st input)))

  (* the op's env: the chosen roots and the source install's lock for them *)
  let prepare st input =
    let vfs = st.src.vfs in
    ignore
      (Vfs.remove vfs ~recursive:true
         (Filename.dirname (Environment.manifest_path env_name)));
    let pairs = roots st input in
    let env = make_env st.src ~name:env_name ~view (List.map fst pairs) in
    ok "write lock" (Environment.write_lock st.src env pairs)

  let context st =
    Context.create ~vfs:st.src.vfs ~install_root:pull_root ~cache_root ()

  let run st _ =
    let vfs_before = vfs_counters st.src.vfs in
    let ctx = context st in
    let env = ok "env load" (Environment.load ctx ~name:env_name) in
    match Environment.install_locked ~jobs ctx env with
    | Ok report -> { ctx; report; vfs_before }
    | Error e -> failwith (Environment.locked_error_to_string e)

  let run_traced st tr _ =
    let sp name f = Span.span tr name f in
    let vfs_before = vfs_counters st.src.vfs in
    let ctx = sp "core.Context.create" (fun () -> context st) in
    let env =
      sp "core.Environment.load" (fun () ->
          ok "env load" (Environment.load ctx ~name:env_name))
    in
    let lock =
      match
        sp "core.Environment.read_lock" (fun () -> Environment.read_lock ctx env)
      with
      | Ok lock -> lock
      | Error e -> failwith (Environment.lock_error_to_string e)
    in
    { ctx; report = traced_install tr ctx env lock.Environment.lk_specs; vfs_before }

  let counters _ _ o =
    let counts = floats (sub_counters (vfs_counters o.ctx.vfs) o.vfs_before) in
    let files =
      List.filter
        (fun (path, _) ->
          not (String.starts_with ~prefix:(pull_root ^ "/.spack-db") path))
        (files_under o.ctx.vfs pull_root)
    in
    let reloc =
      List.concat_map
        (fun (_, content) ->
          let t0 = Span.now () in
          ignore
            (Buildcache.relocate ~from_root:pull_root ~to_root:src_root content);
          [
            ("reloc.ns", since t0);
            ("reloc.bytes", float_of_int (String.length content));
          ])
        files
    in
    sum_counters
      [
        counts;
        store_counters o.ctx o.report;
        [ ("store.file_bytes", file_bytes files) ];
        unit_costs files;
        reloc;
      ]

  let check st input o =
    let s = Installer.stats o.ctx.installer in
    let expected = closure_hashes (roots st input) in
    let hashes =
      List.map
        (fun r -> r.Database.r_hash)
        (Database.all (Installer.database o.ctx.installer))
      |> List.sort String.compare
    in
    if s.st_built <> 0 then fail "%d nodes built from source" s.st_built
    else if s.st_cache_hits <> List.length expected then
      fail "%d cache hits for %d locked nodes" s.st_cache_hits
        (List.length expected)
    else if hashes <> expected then Error "record hashes differ from the lock"
    else verify_roots o.ctx (roots st input)

  let cleanup st _ =
    ignore (Vfs.remove st.src.vfs ~recursive:true pull_root);
    ignore (Vfs.remove st.src.vfs ~recursive:true view)

  (* an untraced [Environment.install_locked] into the same fresh root
     must index exactly what the step-by-step pipeline indexed *)
  let guard st input o =
    let traced = index_json o.ctx in
    cleanup st o;
    let o' = run st input in
    let untraced = index_json o'.ctx in
    cleanup st o';
    if traced = untraced then Ok ()
    else Error "traced pipeline indexed a different store"
end

(* ------------------------------------------------------------------ *)
(* spec-stream: zipf-distributed [Ospack.spec] queries on one
   long-lived context                                                 *)

module Spec_stream = struct
  type state = {
    seed : int;
    mutable ctx : Context.t;
    queries : (string * string) array;
        (** (query, its uncached greedy answer as JSON), zipf rank order *)
    cdf : float array;
  }

  type input = int
  type output = { c : Concrete.t; miss : bool }

  let name = "spec-stream"
  let warmup = false

  (* A context's ccache only grows, so one context would serve hits only
     once the pool is cached and the op mix would depend on how many ops
     a run gets through. Each session therefore starts a fresh context
     and replays the fill: about a third of a session's ops miss, and the
     cache grows to about 330 entries. *)
  let session_ops = 1000
  let new_session st = st.ctx <- Context.create ()
  let zipf_s = 1.0

  let newest pkg =
    match Package.known_versions pkg with
    | [] -> None
    | v :: vs ->
        Some
          (List.fold_left
             (fun a b -> if Version.compare b a > 0 then b else a)
             v vs)

  let setup ~seed =
    let ctx = Context.create () in
    let candidates =
      List.concat_map
        (fun pkg ->
          let n = pkg.Package.p_name in
          [ n; n ^ " %gcc"; n ^ " %intel" ]
          @
          match newest pkg with
          | Some v -> [ n ^ "@" ^ Version.to_string v ]
          | None -> [])
        (Repository.all_packages ctx.repo)
    in
    let queries =
      List.filter_map
        (fun q ->
          match Parser.parse q with
          | Error _ -> None
          | Ok ast -> (
              match Backends.solve Backends.Greedy ctx.cctx ast with
              | Ok c -> Some (q, Json.to_string (Concrete.to_json c))
              | Error _ -> None))
        candidates
      |> Array.of_list
    in
    let st = population_rng 0 in
    for i = Array.length queries - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = queries.(i) in
      queries.(i) <- queries.(j);
      queries.(j) <- x
    done;
    let n = Array.length queries in
    let weights = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    { seed; ctx; queries; cdf }

  let input st ~stream i =
    let u = Random.State.float (rng ~seed:st.seed ~stream i) 1.0 in
    (* first rank whose cumulative weight exceeds u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if st.cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    search 0 (Array.length st.cdf - 1)

  let describe st i = fst st.queries.(i)
  let prepare _ _ = ()

  let run st i =
    { c = ok "spec" (Ospack.spec st.ctx (fst st.queries.(i))); miss = false }

  (* [Ospack.spec]: parse, the cached greedy solve, and the persist that
     follows a miss *)
  let run_traced st tr i =
    let ctx = st.ctx in
    let ast =
      ok "parse"
        (Span.span tr "spec.Parser.parse" (fun () ->
             Parser.parse (fst st.queries.(i))))
    in
    let before = Ccache.length ctx.ccache in
    let r =
      Span.span tr "concretize.cached" (fun () ->
          Concretizer.concretize_cached ~cache:ctx.ccache ctx.cctx ast)
    in
    let miss = Ccache.length ctx.ccache <> before in
    Span.rename_last tr
      (if miss then "concretize.cached_miss" else "concretize.cached_hit");
    if miss then
      Span.span tr "core.Context.save_ccache" (fun () -> Context.save_ccache ctx);
    match r with
    | Ok c -> { c; miss }
    | Error e -> failwith (Cerror.to_string e)

  let counters st _ o =
    let persisted =
      if o.miss then
        match Vfs.read_file st.ctx.vfs st.ctx.ccache_path with
        | Ok s -> float_of_int (String.length s)
        | Error _ -> 0.0
      else 0.0
    in
    sum_counters
      [
        [
          ("ccache.lookups", 1.0);
          ("ccache.hits", if o.miss then 0.0 else 1.0);
          ("ccache.misses", if o.miss then 1.0 else 0.0);
          ("ccache.persist_bytes", persisted);
        ];
        unit_costs [ ("result.json", Json.to_string (Concrete.to_json o.c)) ];
      ]

  let check st i o =
    if Json.to_string (Concrete.to_json o.c) = snd st.queries.(i) then Ok ()
    else fail "%s: cached answer differs from the fresh greedy one" (fst st.queries.(i))

  let guard _ _ _ = Ok ()
  let cleanup _ _ = ()
end

(* ------------------------------------------------------------------ *)
(* solve-conflict: the clause backend on queries greedy cannot solve   *)

module Solve_conflict = struct
  let session_ops = 1
  let new_session _ = ()

  type entry = {
    label : string;
    cctx : Concretizer.ctx;
    ast : Ast.t;
    sat : bool;  (** known answer: a model exists *)
  }

  type state = { seed : int; pool : entry array }
  type input = int

  type output = {
    outcome : I.outcome;
    nvars : int;
    nclauses : int;
  }

  let name = "solve-conflict"
  let warmup = true

  (* [k] providers of one interface; each pins leafdep@1.0 except, in
     the satisfiable variant, the last one, while [top] needs
     leafdep@2.0 — greedy always takes the first provider and fails *)
  let provider_family ~sat k =
    let open Package in
    let providers =
      List.init k (fun i ->
          make_pkg
            (Printf.sprintf "impl-%02d" i)
            [
              version "1.0";
              provides "iface";
              depends_on
                (if sat && i = k - 1 then "leafdep@2.0" else "leafdep@1.0");
            ])
    in
    Concretizer.make_ctx ~compilers:Universe.compilers
      (Repository.create
         (providers
         @ [
             make_pkg "leafdep" [ version "1.0"; version "2.0" ];
             make_pkg "top"
               [ version "1.0"; depends_on "iface"; depends_on "leafdep@2.0" ];
           ]))

  let setup ~seed =
    let cctx = universe_ctx () in
    (* §4.5: every MPI-using package for which the hwloc pin defeats
       greedy while the clause backend finds a model *)
    let uses_mpi p =
      match Concretizer.concretize cctx (Parser.parse_exn p) with
      | Ok c ->
          List.exists
            (fun (n : Concrete.node) -> List.mem_assoc "mpi" n.Concrete.provided)
            (Concrete.nodes c)
      | Error _ -> false
    in
    let hwloc =
      List.filter_map
        (fun p ->
          let label = p ^ " ^mpi+hwloc ^hwloc@1.9" in
          let ast = Parser.parse_exn label in
          if
            uses_mpi p
            && Result.is_error (Backends.solve Backends.Greedy cctx ast)
            && Result.is_ok (Backends.solve Backends.Clauses cctx ast)
          then Some { label; cctx; ast; sat = true }
          else None)
        (Repository.package_names cctx.repo)
    in
    let family =
      List.concat_map
        (fun k ->
          List.map
            (fun sat ->
              {
                label = Printf.sprintf "top (%d providers, %s)" k
                    (if sat then "sat" else "unsat");
                cctx = provider_family ~sat k;
                ast = Parser.parse_exn "top";
                sat;
              })
            [ true; false ])
        (List.init 31 (fun i -> i + 2))
    in
    let gerris =
      let label = "gerris ^mpich@1.4" in
      { label; cctx; ast = Parser.parse_exn label; sat = false }
    in
    { seed; pool = Array.of_list (hwloc @ family @ [ gerris ]) }

  let input st ~stream i =
    Random.State.int (rng ~seed:st.seed ~stream i) (Array.length st.pool)

  let describe st i = st.pool.(i).label
  let prepare _ _ = ()

  let run st i =
    let e = st.pool.(i) in
    let outcome = Backends.solve_full Backends.Clauses e.cctx e.ast in
    { outcome; nvars = 0; nclauses = 0 }

  (* [Backends.Clause_backend.solve_full] through its public pieces:
     greedy round 0, then encode once and alternate CDCL models with
     greedy-oracle replays; the enclosing span's self time is the CEGAR
     glue (blocking clauses, core minimization bookkeeping, rendering) *)
  let max_rounds = 64

  let greedy_run tr ?forced (cctx : Concretizer.ctx) ast =
    Span.span tr "concretize.greedy" (fun () ->
        let obs = Obs.create () in
        let result, trace = Concretizer.run_trace ~obs ?forced cctx [] ast in
        List.iter (fun (k, n) -> Obs.count cctx.obs k n) (Obs.counters obs);
        ( result,
          trace,
          {
            I.empty_stats with
            st_iterations = Obs.counter obs "concretize.iterations";
            st_runs = 1;
          } ))

  let solve tr ?obs ~nvars ~clauses ~order () =
    Span.span tr "concretize.Solver.solve" (fun () ->
        Solver.solve ?obs ~nvars ~clauses ~order ())

  let solver_stats (s : Solver.stats) =
    {
      I.empty_stats with
      st_decisions = s.Solver.s_decisions;
      st_propagations = s.Solver.s_propagations;
      st_conflicts = s.Solver.s_conflicts;
      st_restarts = s.Solver.s_restarts;
    }

  let minimize tr enc blocking core_ids =
    let nvars = Clauses.nvars enc in
    let order = Clauses.order enc in
    let valid = List.filter (fun o -> o >= 0) core_ids in
    let groups = List.sort_uniq compare (List.map (Clauses.reason enc) valid) in
    if List.length groups > 25 then core_ids
    else begin
      let removed = Hashtbl.create 8 in
      let current = ref core_ids in
      List.iter
        (fun g ->
          let cls =
            List.filter
              (fun (_, o) ->
                let r = Clauses.reason enc o in
                (not (Hashtbl.mem removed r)) && r <> g)
              (Clauses.clause_list enc)
            @ blocking
          in
          match fst (solve tr ~nvars ~clauses:cls ~order ()) with
          | Solver.Unsat core' ->
              Hashtbl.add removed g ();
              current := core'
          | Solver.Sat _ -> ())
        groups;
      !current
    end

  let cegar tr (cctx : Concretizer.ctx) ast =
    let r0, trace0, stats0 = greedy_run tr cctx ast in
    match r0 with
    | Ok c ->
        ( {
            I.oc_result = Ok c;
            oc_stats = { stats0 with I.st_decisions = List.length trace0 };
            oc_core = [];
          },
          0,
          0 )
    | Error e0 -> (
        let greedy_core =
          List.map Concretizer.explain_decision trace0
          @ [ "blocked: " ^ Cerror.to_string e0 ]
        in
        match
          Span.span tr "concretize.Clauses.encode" (fun () ->
              Clauses.encode cctx ast)
        with
        | exception _ ->
            ({ I.oc_result = Error e0; oc_stats = stats0; oc_core = greedy_core }, 0, 0)
        | enc ->
            let base_clauses = Clauses.clause_list enc in
            let rec refine blocking stats round =
              if round > max_rounds then
                {
                  I.oc_result = Error e0;
                  oc_stats = stats;
                  oc_core =
                    [
                      Printf.sprintf
                        "exhausted %d candidate models without one the \
                         greedy oracle accepts"
                        max_rounds;
                    ];
                }
              else
                let sobs = Obs.create () in
                let outcome, sstats =
                  solve tr ~obs:sobs ~nvars:(Clauses.nvars enc)
                    ~clauses:(base_clauses @ blocking) ~order:(Clauses.order enc) ()
                in
                List.iter (fun (k, n) -> Obs.count cctx.obs k n) (Obs.counters sobs);
                let stats = I.add_stats stats (solver_stats sstats) in
                match outcome with
                | Solver.Unsat core_ids ->
                    let core_ids = minimize tr enc blocking core_ids in
                    {
                      I.oc_result = Error e0;
                      oc_stats = stats;
                      oc_core = Clauses.render_core enc core_ids;
                    }
                | Solver.Sat model -> (
                    let forced = Clauses.decisions_of_model enc model in
                    let r, _, ostats = greedy_run tr ~forced cctx ast in
                    let stats = I.add_stats stats ostats in
                    match r with
                    | Ok c -> { I.oc_result = Ok c; oc_stats = stats; oc_core = [] }
                    | Error _ ->
                        let block =
                          (List.map (fun l -> -l) (Clauses.blocking_lits enc model), -1)
                        in
                        refine (block :: blocking) stats (round + 1))
            in
            (refine [] stats0 1, Clauses.nvars enc, List.length base_clauses))

  let run_traced st tr i =
    let e = st.pool.(i) in
    let outcome, nvars, nclauses =
      Span.span tr "concretize.cegar_rest" (fun () -> cegar tr e.cctx e.ast)
    in
    { outcome; nvars; nclauses }

  let counters _ _ o =
    let s = o.outcome.I.oc_stats in
    floats
      [
        ("solver.decisions", s.I.st_decisions);
        ("solver.propagations", s.I.st_propagations);
        ("solver.conflicts", s.I.st_conflicts);
        ("solver.restarts", s.I.st_restarts);
        ("cegar.greedy_runs", s.I.st_runs);
        ("clauses.nvars", o.nvars);
        ("clauses.clauses", o.nclauses);
      ]

  let check st i o =
    let e = st.pool.(i) in
    match (e.sat, o.outcome.I.oc_result) with
    | true, Ok c when Concrete.satisfies c e.ast -> Ok ()
    | true, Ok _ -> fail "%s: model does not satisfy the query" e.label
    | true, Error err -> fail "%s: no model (%s)" e.label (Cerror.to_string err)
    | false, Error _ when o.outcome.I.oc_core <> [] -> Ok ()
    | false, Error _ -> fail "%s: UNSAT without a core" e.label
    | false, Ok _ -> fail "%s: a model for an unsatisfiable query" e.label

  let render (o : I.outcome) =
    ( (match o.I.oc_result with
      | Ok c -> Json.to_string (Concrete.to_json c)
      | Error e -> Cerror.to_string e),
      o.I.oc_core,
      o.I.oc_stats )

  let guard st i o =
    let e = st.pool.(i) in
    if render (Backends.solve_full Backends.Clauses e.cctx e.ast) = render o.outcome
    then Ok ()
    else fail "%s: traced CEGAR diverged from Backends.solve_full" e.label

  let cleanup _ _ = ()
end

let all : (module S) list =
  [
    (module Env_build);
    (module Env_cache_pull);
    (module Spec_stream);
    (module Solve_conflict);
  ]

let find name =
  List.find_opt (fun (module W : S) -> W.name = name) all
