(* The hardened binary cache: crash-safe entry writes (torture at every
   barrier), token-boundary relocation, extraction that clears stale
   orphans, refusal of flat and count-less entries, the simulated mirror fleet
   (deterministic zipf traces, retry/failover, source-build fallback),
   and splicing a cached binary onto a different dependency. *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Concretizer = Ospack_concretize.Concretizer
module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Buildcache = Ospack_store.Buildcache
module Cachefleet = Ospack_store.Cachefleet
module Loader = Ospack_buildsim.Loader
module Env = Ospack_buildsim.Env
module Vfs = Ospack_vfs.Vfs

let repo =
  Repository.create
    [
      make_pkg "dyninst"
        [ version "8.2"; depends_on "libelf"; depends_on "libdwarf" ];
      make_pkg "libdwarf" [ version "20130729"; depends_on "libelf" ];
      make_pkg "libelf" [ version "0.8.13"; version "0.8.12" ];
      make_pkg "zlib" [ version "1.2.8" ];
    ]

let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ]
let cctx = Concretizer.make_ctx ~compilers repo

let concretize spec =
  match Concretizer.concretize_string cctx spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "concretize %s: %s" spec e

let ok name = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" name (Vfs.error_to_string e)

(* a small hand-built prefix: a relocatable file, a symlink, a dir *)
let mk_prefix vfs prefix =
  ok "mkdir" (Vfs.mkdir_p vfs (prefix ^ "/bin"));
  ok "write"
    (Vfs.write_file vfs (prefix ^ "/bin/tool") ("prefix=" ^ prefix ^ "\n"));
  ok "link"
    (Vfs.symlink vfs ~target:(prefix ^ "/bin/tool") ~link:(prefix ^ "/current"))

let record spec prefix =
  {
    Database.r_spec = spec;
    r_hash = Concrete.root_hash spec;
    r_prefix = prefix;
    r_explicit = true;
    r_external = false;
    r_build_seconds = 1.0;
  }

let save_exn cache ~install_root r =
  match Buildcache.save cache ~install_root r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" (Buildcache.error_to_string e)

(* --- crash torture at every write barrier of a save ------------------ *)

let save_crash_torture () =
  let spec = concretize "libelf" in
  let hash = Concrete.root_hash spec in
  let world () =
    let vfs = Vfs.create () in
    mk_prefix vfs "/r1/pkg";
    (vfs, Buildcache.create vfs ~root:"/cache")
  in
  let save cache =
    Result.map_error Buildcache.error_to_string
      (Buildcache.save cache ~install_root:"/r1" (record spec "/r1/pkg"))
  in
  let ( let* ) = Result.bind in
  let check _reference ~kill:_ vfs cache =
    (* the entry is absent or fully valid — never truncated *)
    let* () =
      if not (Buildcache.has cache ~hash) then Ok ()
      else
        match
          Buildcache.extract cache ~hash ~install_root:"/r1" ~prefix:"/chk/pkg"
        with
        | Ok _ when Vfs.is_file vfs "/chk/pkg/bin/tool" -> Ok ()
        | Ok _ -> Error "surviving entry extracted without its files"
        | Error e ->
            Error ("surviving entry corrupt: " ^ Buildcache.error_to_string e)
    in
    (* listing sweeps interrupted [.tmp] litter and never reports it *)
    let tmp = Astring.String.is_suffix ~affix:".tmp" in
    let* () =
      match List.find_opt tmp (Buildcache.cached_hashes cache) with
      | Some h -> Error ("tmp litter listed: " ^ h)
      | None -> Ok ()
    in
    let* () =
      match
        List.find_opt
          (fun (p, kind) -> kind <> Vfs.Dir && tmp p)
          (Vfs.walk vfs "/cache")
      with
      | Some (p, _) -> Error ("tmp litter survived the sweep: " ^ p)
      | None -> Ok ()
    in
    (* a rerun of the same save repairs the cache completely *)
    let* () = Result.map_error (( ^ ) "re-save: ") (save cache) in
    match
      Buildcache.extract cache ~hash ~install_root:"/r2" ~prefix:"/out/pkg"
    with
    | Error e ->
        Error ("re-save did not repair: " ^ Buildcache.error_to_string e)
    | Ok _ -> (
        match Vfs.read_file vfs "/out/pkg/bin/tool" with
        | Ok "prefix=/r2/pkg\n" -> Ok ()
        | Ok c -> Error ("repaired entry relocates wrongly: " ^ c)
        | Error e -> Error ("read: " ^ Vfs.error_to_string e))
  in
  match Vfs.crash_sweep ~world ~op:save ~check () with
  | Error e -> Alcotest.fail e
  | Ok sweep ->
      Alcotest.(check bool) "save crosses several barriers" true
        (sweep.Vfs.sw_barriers >= 2);
      Alcotest.(check int) "killed at every barrier" sweep.Vfs.sw_barriers
        (List.length sweep.Vfs.sw_kills)

(* transient faults are typed, so the fleet can retry them; everything
   else is terminal *)
let transient_classification () =
  let vfs = Vfs.create () in
  mk_prefix vfs "/r1/pkg";
  let cache = Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  Vfs.set_fault_plan vfs ~mode:Vfs.Fail_op [ 1 ];
  (match Buildcache.save cache ~install_root:"/r1" (record spec "/r1/pkg") with
  | Ok () -> Alcotest.fail "save survived an armed fault plan"
  | Error e ->
      Alcotest.(check bool) "injected fault classified transient" true
        (Buildcache.transient e));
  Vfs.clear_fault_plan vfs;
  match Buildcache.extract cache ~hash:"nope" ~install_root:"/r1" ~prefix:"/d"
  with
  | Ok _ -> Alcotest.fail "missing entry extracted"
  | Error e ->
      Alcotest.(check bool) "a miss is not transient" false
        (Buildcache.transient e)

(* --- relocation respects path-token boundaries ----------------------- *)

let relocate_boundaries () =
  let r = Buildcache.relocate ~from_root:"/opt/spack" ~to_root:"/new/root" in
  Alcotest.(check string) "plain occurrence relocates" "prefix=/new/root/pkg\n"
    (r "prefix=/opt/spack/pkg\n");
  Alcotest.(check string) "exact match relocates" "/new/root" (r "/opt/spack");
  Alcotest.(check string) "sibling root /opt/spack2 untouched"
    "lib=/opt/spack2/lib" (r "lib=/opt/spack2/lib");
  Alcotest.(check string) "embedding root /usr/opt/spack untouched"
    "doc=/usr/opt/spack" (r "doc=/usr/opt/spack");
  Alcotest.(check string) "colon-separated search path relocates"
    "/new/root/lib:/other/lib" (r "/opt/spack/lib:/other/lib");
  (* longest prefix wins, and replacements never chain *)
  Alcotest.(check string) "longest pair wins" "/b/x"
    (Buildcache.relocate_many
       ~pairs:[ ("/opt/spack", "/a"); ("/opt/spack/sub", "/b") ]
       "/opt/spack/sub/x");
  Alcotest.(check string) "no chained rewrites" "/b"
    (Buildcache.relocate_many ~pairs:[ ("/a", "/b"); ("/b", "/c") ] "/a")

(* The reference relocator: the straightforward scan that tries every
   pair at every position with a fresh substring. The one-scan kernel
   must return exactly its bytes. *)
let reference_relocate_many ~pairs text =
  let is_token_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '.' || c = '_' || c = '+' || c = '-'
  in
  let pairs =
    List.filter (fun (f, r) -> f <> "" && f <> r) pairs
    |> List.stable_sort (fun (a, _) (b, _) ->
           compare (String.length b) (String.length a))
  in
  let buf = Buffer.create (String.length text) in
  let n = String.length text in
  let matches_at i (from_root, _) =
    let flen = String.length from_root in
    i + flen <= n
    && String.sub text i flen = from_root
    && (i = 0 || not (is_token_char text.[i - 1]))
    && (i + flen = n || not (is_token_char text.[i + flen]))
  in
  let rec go i =
    if i < n then
      match List.find_opt (matches_at i) pairs with
      | Some (from_root, to_root) ->
          Buffer.add_string buf to_root;
          go (i + String.length from_root)
      | None ->
          Buffer.add_char buf text.[i];
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

(* Sources share components, so one is often a prefix of another, and a
   replacement is often another pair's source (which must not chain).
   Texts are built from whole sources, source prefixes, token
   characters, '/', ':' and other boundaries. *)
let arb_relocation =
  let open QCheck.Gen in
  let component = oneofl [ "opt"; "spack"; "sub"; "a"; "b2"; "x.y"; "o" ] in
  let path =
    map2
      (fun slash parts -> (if slash then "/" else "") ^ String.concat "/" parts)
      (frequency [ (2, return true); (1, return false) ])
      (list_size (int_range 1 3) component)
  in
  let gen =
    path >>= fun s1 ->
    list_size (int_range 0 3) path >>= fun more ->
    let sources = s1 :: more in
    let replacement =
      frequency
        [ (2, oneofl sources); (2, path); (1, return ""); (1, return "/n") ]
    in
    list_size (int_range 1 4) (pair (oneofl ("" :: sources)) replacement)
    >>= fun pairs ->
    let piece =
      frequency
        [
          (4, oneofl sources);
          ( 2,
            oneofl sources >>= fun s ->
            map (fun k -> String.sub s 0 k) (int_bound (String.length s)) );
          (3, map (String.make 1) (oneofl [ 'a'; 'Z'; '9'; '.'; '_'; '+'; '-' ]));
          (3, oneofl [ "/"; ":"; " "; "\n"; "="; "" ]);
        ]
    in
    map (fun ps -> (pairs, String.concat "" ps)) (list_size (int_bound 12) piece)
  in
  QCheck.make
    ~print:(fun (pairs, text) ->
      Printf.sprintf "pairs=[%s] text=%S"
        (String.concat "; "
           (List.map (fun (f, r) -> Printf.sprintf "%S->%S" f r) pairs))
        text)
    gen

let relocate_oracle =
  QCheck.Test.make ~name:"one-scan relocation = reference relocator"
    ~count:2000 arb_relocation (fun (pairs, text) ->
      Buildcache.relocate_many ~pairs text
      = reference_relocate_many ~pairs text)

(* --- extraction over a stale prefix clears orphans ------------------- *)

let extract_clears_orphans () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let old_spec = concretize "libelf" in
  let new_spec = concretize "libelf@0.8.12" in
  ok "mkdir" (Vfs.mkdir_p vfs "/r1/old/bin");
  ok "write" (Vfs.write_file vfs "/r1/old/bin/orphan" "old payload");
  ok "mkdir" (Vfs.mkdir_p vfs "/r1/new/bin");
  ok "write" (Vfs.write_file vfs "/r1/new/bin/tool" "new payload");
  save_exn cache ~install_root:"/r1" (record old_spec "/r1/old");
  save_exn cache ~install_root:"/r1" (record new_spec "/r1/new");
  let extract spec =
    match
      Buildcache.extract cache
        ~hash:(Concrete.root_hash spec)
        ~install_root:"/r1" ~prefix:"/dest/pkg"
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "extract: %s" (Buildcache.error_to_string e)
  in
  extract old_spec;
  Alcotest.(check bool) "first entry materialized" true
    (Vfs.is_file vfs "/dest/pkg/bin/orphan");
  (* a different entry lands on the same prefix: the old payload must
     not survive as a stale orphan next to the new files *)
  extract new_spec;
  Alcotest.(check bool) "second entry materialized" true
    (Vfs.is_file vfs "/dest/pkg/bin/tool");
  Alcotest.(check bool) "stale orphan cleared" false
    (Vfs.is_file vfs "/dest/pkg/bin/orphan")

(* --- one entry format: flat and count-less entries are refused ------- *)

(* a well-formed entry for libelf except that it records no file_count *)
let countless_entry () =
  let module Json = Ospack_json.Json in
  let spec = concretize "libelf" in
  let entry =
    Json.Obj
      [
        ("format", Json.Int 1);
        ("install_root", Json.String "/r1");
        ("prefix", Json.String "/r1/pkg");
        ("spec", Concrete.to_json spec);
        ( "files",
          Json.List
            [
              Json.Obj
                [
                  ("rel", Json.String "bin/tool");
                  ("kind", Json.String "file");
                  ("content", Json.String "prefix=/r1/pkg\n");
                ];
            ] );
      ]
  in
  (Concrete.root_hash spec, Json.to_string entry)

let flat_entries_invisible () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let hash, entry = countless_entry () in
  (* the pre-shard layout: a file directly under the cache root *)
  ok "write" (Vfs.write_file vfs ("/cache/" ^ hash ^ ".json") entry);
  Alcotest.(check bool) "flat entry not found" false
    (Buildcache.has cache ~hash);
  Alcotest.(check (list string)) "flat entry not listed" []
    (Buildcache.cached_hashes cache)

let countless_entries_refused () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let hash, entry = countless_entry () in
  ok "write" (Vfs.write_file vfs (Buildcache.entry_path cache hash) entry);
  (match Buildcache.entry_spec cache ~hash with
  | Error (Buildcache.Cache_corrupt _) -> ()
  | Ok _ -> Alcotest.fail "an entry without file_count must not load"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  (match
     Buildcache.extract cache ~hash ~install_root:"/r2" ~prefix:"/dest/pkg"
   with
  | Error (Buildcache.Cache_corrupt { co_reason; _ }) ->
      Alcotest.(check string) "reason" "entry missing file_count" co_reason
  | Ok _ -> Alcotest.fail "an entry without file_count must not extract"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  Alcotest.(check bool) "nothing materialized" false
    (Vfs.exists vfs "/dest/pkg")

(* --- the mirror fleet ------------------------------------------------ *)

let fleet_world () =
  let vfs = Vfs.create () in
  let specs =
    List.map
      (fun s ->
        let c = concretize s in
        let prefix = "/r1/" ^ Concrete.root_hash c in
        mk_prefix vfs prefix;
        (c, record c prefix))
      [ "libelf"; "libelf@0.8.12"; "zlib" ]
  in
  let stock root keep =
    let cache = Buildcache.create vfs ~root in
    List.iteri
      (fun i (_, r) -> if keep i then save_exn cache ~install_root:"/r1" r)
      specs;
    cache
  in
  (* near carries the popular head; far carries everything real *)
  let near = stock "/mirrors/near" (fun i -> i < 2) in
  let far = stock "/mirrors/far" (fun _ -> true) in
  let items =
    List.map
      (fun (c, (r : Database.record)) ->
        {
          Cachefleet.it_name = Concrete.node_to_string (Concrete.root_node c);
          it_hash = r.Database.r_hash;
          it_build_seconds = 5.0;
        })
      specs
    (* a ghost entry no mirror carries: always a source-build fallback *)
    @ [
        {
          Cachefleet.it_name = "ghost";
          it_hash = "ffffffffffffffff";
          it_build_seconds = 30.0;
        };
      ]
  in
  let mk_fleet () =
    Cachefleet.create
      [
        Cachefleet.mirror ~latency:0.01 ~name:"near" near;
        Cachefleet.mirror ~latency:0.05 ~name:"far" far;
      ]
  in
  (mk_fleet, items)

let fleet_deterministic () =
  let mk_fleet, items = fleet_world () in
  let config =
    { Cachefleet.default_config with fc_requests = 400; fc_clients = 40 }
  in
  let r1 = Cachefleet.run (mk_fleet ()) config items in
  let r2 = Cachefleet.run (mk_fleet ()) config items in
  Alcotest.(check string) "same seed, byte-identical report"
    (Cachefleet.report_to_string r1)
    (Cachefleet.report_to_string r2);
  Alcotest.(check int) "every request hits or falls back" config.fc_requests
    (r1.Cachefleet.rp_hits + r1.rp_fallback_builds);
  Alcotest.(check bool) "clients drawn from the pool" true
    (r1.rp_clients > 1 && r1.rp_clients <= config.Cachefleet.fc_clients);
  (* zipf: rank 1 must dominate the tail *)
  (match (r1.rp_by_package, List.rev r1.rp_by_package) with
  | (_, top) :: _, (_, bottom) :: _ ->
      Alcotest.(check bool) "zipf skew visible" true (top > bottom)
  | _ -> Alcotest.fail "no per-package accounting");
  let diff_seed = Cachefleet.run (mk_fleet ()) { config with fc_seed = 7 } items in
  Alcotest.(check bool) "a different seed reshuffles the trace" true
    (Cachefleet.report_to_string diff_seed
    <> Cachefleet.report_to_string r1)

let fleet_failover_and_fallback () =
  let mk_fleet, items = fleet_world () in
  let config =
    {
      Cachefleet.default_config with
      fc_requests = 400;
      fc_clients = 40;
      fc_fault_every = 5;
    }
  in
  let r = Cachefleet.run (mk_fleet ()) config items in
  Alcotest.(check bool) "transient faults retried" true (r.Cachefleet.rp_retries > 0);
  Alcotest.(check bool) "double faults fail over" true (r.rp_failovers > 0);
  Alcotest.(check bool) "faults accounted per mirror" true
    (List.exists (fun (m : Cachefleet.mirror) -> m.m_faults > 0) r.rp_mirrors);
  (* zlib lives only on the far mirror: the chain must reach it *)
  (match r.rp_mirrors with
  | [ near; far ] ->
      Alcotest.(check bool) "near mirror misses the tail" true
        (near.Cachefleet.m_misses > 0);
      Alcotest.(check bool) "far mirror serves what near lacks" true
        (far.Cachefleet.m_hits > 0)
  | _ -> Alcotest.fail "expected two mirrors");
  let ghost_requests =
    try List.assoc "ghost" r.rp_by_package with Not_found -> 0
  in
  Alcotest.(check bool) "ghost entry requested" true (ghost_requests > 0);
  Alcotest.(check bool) "every ghost request built from source" true
    (r.rp_fallback_builds >= ghost_requests);
  Alcotest.(check bool) "fallback builds charged their cost" true
    (r.rp_fallback_seconds >= 30.0 *. float_of_int ghost_requests);
  Alcotest.(check int) "hits + fallbacks still cover the trace"
    config.fc_requests
    (r.rp_hits + r.rp_fallback_builds)

(* --- splicing -------------------------------------------------------- *)

let splice_roundtrip () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let inst = Installer.create ~vfs ~repo ~compilers ~cache () in
  let target = concretize "dyninst" in
  let old_hash = Concrete.root_hash target in
  (match Installer.install inst target with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install dyninst: %s" e);
  (match Installer.push_to_cache inst cache with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "push: %s" e);
  let replacement = concretize "libelf@0.8.12" in
  (match Installer.install inst replacement with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install libelf@0.8.12: %s" e);
  let sp =
    match Installer.splice inst ~hash:old_hash ~replacement with
    | Ok r -> r
    | Error e -> Alcotest.failf "splice: %s" e
  in
  Alcotest.(check string) "old hash reported" old_hash sp.Installer.sp_old_hash;
  Alcotest.(check bool) "root hash recomputed" true
    (sp.sp_new_hash <> sp.sp_old_hash);
  Alcotest.(check string) "replaced dependency named" "libelf" sp.sp_replaced;
  Alcotest.(check bool) "rpaths rewired" true (sp.sp_rewired > 0);
  Alcotest.(check bool) "loader verified the spliced prefix" true
    (sp.sp_resolved > 0);
  let new_prefix = sp.sp_record.Database.r_prefix in
  (* the spliced binary links the replacement and runs bare *)
  (match Vfs.read_file vfs (new_prefix ^ "/bin/dyninst") with
  | Ok content ->
      Alcotest.(check bool) "rpath points at libelf-0.8.12" true
        (Astring.String.is_infix ~affix:"libelf-0.8.12" content);
      Alcotest.(check bool) "no rpath left on libelf-0.8.13" false
        (Astring.String.is_infix ~affix:"libelf-0.8.13" content)
  | Error e ->
      Alcotest.failf "spliced binary missing: %s" (Vfs.error_to_string e));
  Alcotest.(check bool) "spliced binary runs with an empty env" true
    (Loader.can_run vfs ~path:(new_prefix ^ "/bin/dyninst") ~env:Env.empty);
  let db = Installer.database inst in
  (* the original install survives untouched *)
  (match Database.find_by_hash db old_hash with
  | Some orig ->
      Alcotest.(check bool) "original prefix intact" true
        (Vfs.is_file vfs (orig.Database.r_prefix ^ "/bin/dyninst"))
  | None -> Alcotest.fail "original record lost");
  (* libdwarf rehashed transitively: an alias record keeps the spliced
     DAG resolvable at the old prefix without a rebuild *)
  (match Database.find_by_name db "libdwarf" with
  | [ a; b ] ->
      Alcotest.(check bool) "alias shares the built prefix" true
        (a.Database.r_prefix = b.Database.r_prefix);
      Alcotest.(check bool) "alias carries the spliced hash" true
        (a.Database.r_hash <> b.Database.r_hash)
  | records ->
      Alcotest.failf "expected libdwarf + alias, got %d records"
        (List.length records));
  (* error surface: no-op, root, and non-dependency splices are typed *)
  (match Installer.splice inst ~hash:old_hash ~replacement:(concretize "libelf") with
  | Ok _ -> Alcotest.fail "no-op splice accepted"
  | Error e ->
      Alcotest.(check bool) "no-op splice named" true
        (Astring.String.is_infix ~affix:"already the installed dependency" e));
  (match Installer.splice inst ~hash:old_hash ~replacement:target with
  | Ok _ -> Alcotest.fail "root splice accepted"
  | Error e ->
      Alcotest.(check bool) "root splice refused" true
        (Astring.String.is_infix ~affix:"cannot replace the root package" e));
  match Installer.splice inst ~hash:old_hash ~replacement:(concretize "zlib")
  with
  | Ok _ -> Alcotest.fail "non-dependency splice accepted"
  | Error e ->
      Alcotest.(check bool) "non-dependency splice refused" true
        (Astring.String.is_infix ~affix:"does not depend on" e)

let () =
  Alcotest.run "buildcache"
    [
      ( "crash safety",
        [
          Alcotest.test_case "save tortured at every write barrier" `Quick
            save_crash_torture;
          Alcotest.test_case "transient fault classification" `Quick
            transient_classification;
        ] );
      ( "relocation",
        [
          Alcotest.test_case "path-token boundary rules" `Quick
            relocate_boundaries;
          QCheck_alcotest.to_alcotest relocate_oracle;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "stale orphans cleared" `Quick
            extract_clears_orphans;
          Alcotest.test_case "flat entries invisible" `Quick
            flat_entries_invisible;
          Alcotest.test_case "entries without file_count refused" `Quick
            countless_entries_refused;
        ] );
      ( "mirror fleet",
        [
          Alcotest.test_case "deterministic zipf trace" `Quick
            fleet_deterministic;
          Alcotest.test_case "retry, failover, and source fallback" `Quick
            fleet_failover_and_fallback;
        ] );
      ( "splicing",
        [ Alcotest.test_case "cached binary respliced" `Quick splice_roundtrip ] );
    ]
