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
          Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r1" ~prefix:"/chk/pkg"
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
      Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r2" ~prefix:"/out/pkg"
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
  match Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r1" ~prefix:"/d" with
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
  (* a root glued to a flag relocates; one inside a longer token not *)
  let r1 = Buildcache.relocate ~from_root:"/r1" ~to_root:"/new" in
  List.iter
    (fun (text, want) -> Alcotest.(check string) text want (r1 text))
    [
      ("-L/r1/lib", "-L/new/lib");
      ("-I/r1/x", "-I/new/x");
      ("cc -Wl,-rpath,/r1/lib -L/r1/lib", "cc -Wl,-rpath,/new/lib -L/new/lib");
      ("/usr/r1/x", "/usr/r1/x");
      ("/r12/x", "/r12/x");
      ("a-L/r1", "a-L/r1");
    ];
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
  (* the token run ending at [i - 1] starts with '-' *)
  let rec flag_before i =
    i > 0
    && is_token_char text.[i - 1]
    && (if i = 1 || not (is_token_char text.[i - 2]) then text.[i - 1] = '-'
        else flag_before (i - 1))
  in
  let matches_at i (from_root, _) =
    let flen = String.length from_root in
    i + flen <= n
    && String.sub text i flen = from_root
    && (i = 0 || not (is_token_char text.[i - 1]) || flag_before i)
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
      Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r1" ~prefix:"/dest/pkg"
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

(* A format-2 entry by hand, header fields as given: the spec line, then
   one [<kind> <rel_len> <content_len>] record per file. *)
let hand_entry header spec files =
  let module Json = Ospack_json.Json in
  let spec = Json.to_string (Concrete.to_json spec) in
  let header =
    List.map
      (function
        | "spec_bytes", _ -> ("spec_bytes", Json.Int (String.length spec))
        | field -> field)
      header
  in
  String.concat ""
    (Json.to_string (Json.Obj header)
     :: "\n" :: spec :: "\n"
     :: List.map
          (fun (kind, rel, content) ->
            Printf.sprintf "%s %d %d\n%s%s" kind (String.length rel)
              (String.length content) rel content)
          files)

(* a well-formed entry for libelf except that it records no file_count *)
let countless_entry () =
  let module Json = Ospack_json.Json in
  let spec = concretize "libelf" in
  let entry =
    hand_entry
      [
        ("format", Json.Int 2);
        ("install_root", Json.String "/r1");
        ("prefix", Json.String "/r1/pkg");
        ("spec_bytes", Json.Null);
      ]
      spec
      [ ("file", "bin/tool", "prefix=/r1/pkg\n") ]
  in
  (spec, entry)

(* a record whose path climbs out of the prefix is refused before
   anything is written *)
let escaping_paths_refused () =
  let module Json = Ospack_json.Json in
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  let hash = Concrete.root_hash spec in
  List.iter
    (fun rel ->
      let entry =
        hand_entry
          [
            ("format", Json.Int 2);
            ("install_root", Json.String "/r1");
            ("prefix", Json.String "/r1/pkg");
            ("file_count", Json.Int 2);
            ("spec_bytes", Json.Null);
          ]
          spec
          [ ("file", "bin/tool", "x"); ("file", rel, "escaped") ]
      in
      ok "write" (Vfs.write_file vfs (Buildcache.entry_path cache hash) entry);
      (match
         Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r2" ~prefix:"/dest/pkg"
       with
      | Error (Buildcache.Cache_corrupt { co_reason; _ }) ->
          Alcotest.(check bool) ("refused: " ^ rel) true
            (Astring.String.is_infix ~affix:"leaves the prefix" co_reason)
      | Ok _ -> Alcotest.failf "%S extracted" rel
      | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
      Alcotest.(check bool) ("nothing written: " ^ rel) false
        (Vfs.exists vfs "/dest" || Vfs.exists vfs "/escaped"))
    [ "../../escaped"; "bin/../../x"; "/escaped"; "bin//x"; "./x"; "bin/" ]

let flat_entries_invisible () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let spec, entry = countless_entry () in
  let hash = Concrete.root_hash spec in
  (* the pre-shard layout: a file directly under the cache root *)
  ok "write" (Vfs.write_file vfs ("/cache/" ^ hash ^ ".json") entry);
  Alcotest.(check bool) "flat entry not found" false
    (Buildcache.has cache ~hash);
  Alcotest.(check (list string)) "flat entry not listed" []
    (Buildcache.cached_hashes cache)

let countless_entries_refused () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let spec, entry = countless_entry () in
  let hash = Concrete.root_hash spec in
  ok "write" (Vfs.write_file vfs (Buildcache.entry_path cache hash) entry);
  (match Buildcache.entry_spec cache ~hash with
  | Error (Buildcache.Cache_corrupt _) -> ()
  | Ok _ -> Alcotest.fail "an entry without file_count must not load"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  (match
     Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r2" ~prefix:"/dest/pkg"
   with
  | Error (Buildcache.Cache_corrupt { co_reason; _ }) ->
      Alcotest.(check string) "reason" "entry missing file_count" co_reason
  | Ok _ -> Alcotest.fail "an entry without file_count must not extract"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  Alcotest.(check bool) "nothing materialized" false
    (Vfs.exists vfs "/dest/pkg")

(* --- format 2: framing, spec bytes, pull = build ---------------------- *)

(* dyninst's three nodes, built under [/r1] and pushed: the entries a
   real install produces *)
let pushed_world () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let inst =
    Installer.create ~vfs ~repo ~compilers ~install_root:"/r1" ~cache ()
  in
  let spec = concretize "dyninst" in
  (match Installer.install inst spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install dyninst: %s" e);
  (match Installer.push_to_cache inst cache with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "push: %s" e);
  let entries =
    List.map
      (fun (n : Concrete.node) ->
        let sub = Concrete.subspec spec n.Concrete.name in
        let path = Buildcache.entry_path cache (Concrete.root_hash sub) in
        match Vfs.read_file vfs path with
        | Ok bytes -> (sub, path, bytes)
        | Error e -> Alcotest.failf "read entry: %s" (Vfs.error_to_string e))
      (Concrete.nodes spec)
  in
  (vfs, cache, Array.of_list entries)

(* The bytes a reader must check, found independently of the reader:
   the header line, the spec and every record header. Flipping one of
   them must be refused, except inside the stored prefix past its
   install root, which no reader uses. Returns the checked offsets and
   the informational ones. *)
let framing bytes =
  let nl i = String.index_from bytes i '\n' in
  let header_end = nl 0 in
  let header = String.sub bytes 0 header_end in
  let spec_end =
    Scanf.sscanf
      (List.find
         (String.starts_with ~prefix:"\"spec_bytes\"")
         (String.split_on_char ',' header))
      "\"spec_bytes\":%d}" (fun n -> header_end + 1 + n)
  in
  let value key =
    let k = "\"" ^ key ^ "\":\"" in
    let start = Astring.String.find_sub ~sub:k header |> Option.get in
    let start = start + String.length k in
    (start, String.index_from header start '"')
  in
  let root_start, root_stop = value "install_root" in
  let prefix_start, prefix_stop = value "prefix" in
  let loose =
    List.init
      (prefix_stop - (prefix_start + (root_stop - root_start) + 1))
      (fun i -> prefix_start + (root_stop - root_start) + 1 + i)
  in
  let rec records i acc =
    if i >= String.length bytes then acc
    else
      let stop = nl i in
      let rel_len, content_len =
        Scanf.sscanf (String.sub bytes i (stop - i)) "%_s %d %d" (fun a b ->
            (a, b))
      in
      records
        (stop + 1 + rel_len + content_len)
        (List.init (stop + 1 - i) (fun k -> i + k) @ acc)
  in
  let checked =
    List.init (spec_end + 1) Fun.id @ records (spec_end + 1) []
    |> List.filter (fun i -> not (List.mem i loose))
  in
  (checked, loose)

type damage = Truncate of int | Flip of int * char

let damage_to_string = function
  | Truncate n -> Printf.sprintf "truncate to %d bytes" n
  | Flip (i, c) -> Printf.sprintf "byte %d := %C" i c

let damage_entries =
  lazy
    (let vfs, cache, entries = pushed_world () in
     let clean =
       Array.map
         (fun (spec, _, bytes) ->
           let prefix = "/clean/" ^ Concrete.root_hash spec in
           match Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r2" ~prefix with
           | Ok payload -> (framing bytes, payload)
           | Error e ->
               Alcotest.failf "clean extract: %s" (Buildcache.error_to_string e))
         entries
     in
     (vfs, cache, entries, clean))

let arb_damage =
  let open QCheck.Gen in
  let _, _, entries, clean = Lazy.force damage_entries in
  let gen =
    int_bound (Array.length entries - 1) >>= fun k ->
    let _, _, bytes = entries.(k) in
    let (checked, loose), _ = clean.(k) in
    let positions = Array.of_list (checked @ loose) in
    let flip =
      int_bound (Array.length positions - 1) >>= fun p ->
      let i = positions.(p) in
      map
        (fun d -> Flip (i, Char.chr ((Char.code bytes.[i] + 1 + d) mod 256)))
        (int_bound 254)
    in
    map
      (fun d -> (k, d))
      (oneof [ map (fun n -> Truncate n) (int_bound (String.length bytes - 1)); flip ])
  in
  QCheck.make ~print:(fun (k, d) -> Printf.sprintf "entry %d: %s" k (damage_to_string d)) gen

(* Every truncation, and every flip of a checked byte, is refused as
   corrupt before anything is written; a flip in the stored prefix past
   its install root is refused or pulls the clean bytes. Never raises. *)
let damaged_entries_refused =
  QCheck.Test.make ~name:"damaged entries are Cache_corrupt, nothing written"
    ~count:1500 arb_damage (fun (k, d) ->
      let vfs, cache, entries, clean = Lazy.force damage_entries in
      let spec, path, bytes = entries.(k) in
      let (_, loose), clean_payload = clean.(k) in
      let damaged =
        match d with
        | Truncate n -> String.sub bytes 0 n
        | Flip (i, c) -> String.mapi (fun j b -> if j = i then c else b) bytes
      in
      ok "damage" (Vfs.write_file vfs path damaged);
      let dest = "/dest/pkg" in
      let result =
        try Ok (Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r2" ~prefix:dest)
        with exn -> Error (Printexc.to_string exn)
      in
      let wrote = Vfs.exists vfs dest in
      ignore (Vfs.remove vfs ~recursive:true dest);
      ok "restore" (Vfs.write_file vfs path bytes);
      match (result, d) with
      | Error exn, _ -> QCheck.Test.fail_reportf "raised %s" exn
      | Ok (Error (Buildcache.Cache_corrupt _)), _ when not wrote -> true
      | Ok (Ok payload), Flip (i, _) when List.mem i loose ->
          payload = clean_payload
      | Ok (Ok _), _ -> QCheck.Test.fail_reportf "damaged entry extracted"
      | Ok (Error e), _ ->
          QCheck.Test.fail_reportf "%s (wrote: %b)"
            (Buildcache.error_to_string e) wrote)

(* the format every earlier release wrote: one JSON object, bodies
   escaped inside it *)
let format1_refused () =
  let module Json = Ospack_json.Json in
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  let entry =
    Json.Obj
      [
        ("format", Json.Int 1);
        ("install_root", Json.String "/r1");
        ("prefix", Json.String "/r1/pkg");
        ("spec", Concrete.to_json spec);
        ("file_count", Json.Int 1);
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
  let hash = Concrete.root_hash spec in
  ok "write"
    (Vfs.write_file vfs (Buildcache.entry_path cache hash) (Json.to_string entry));
  (match Buildcache.extract cache ~spec:(Concrete.render spec) ~install_root:"/r2" ~prefix:"/dest/pkg" with
  | Error (Buildcache.Cache_corrupt { co_reason; _ }) ->
      Alcotest.(check string) "reason" "unsupported format 1" co_reason
  | Ok _ -> Alcotest.fail "a format-1 entry must not extract"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  (match Buildcache.entry_spec cache ~hash with
  | Error (Buildcache.Cache_corrupt { co_reason; _ }) ->
      Alcotest.(check string) "entry_spec reason" "unsupported format 1"
        co_reason
  | Ok _ -> Alcotest.fail "a format-1 entry must not decode"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  Alcotest.(check bool) "nothing materialized" false (Vfs.exists vfs "/dest")

(* an intact entry filed under another DAG's hash: it frames and decodes,
   but it is not the DAG being installed *)
let foreign_spec_refused () =
  let vfs = Vfs.create () in
  let cache = Buildcache.create vfs ~root:"/cache" in
  mk_prefix vfs "/r1/pkg";
  let stored = concretize "libelf" in
  let wanted = concretize "libelf@0.8.12" in
  save_exn cache ~install_root:"/r1" (record stored "/r1/pkg");
  let bytes =
    match Vfs.read_file vfs (Buildcache.entry_path cache (Concrete.root_hash stored)) with
    | Ok b -> b
    | Error e -> Alcotest.failf "read: %s" (Vfs.error_to_string e)
  in
  let hash = Concrete.root_hash wanted in
  ok "write" (Vfs.write_file vfs (Buildcache.entry_path cache hash) bytes);
  (match Buildcache.extract cache ~spec:(Concrete.render wanted) ~install_root:"/r2" ~prefix:"/dest/pkg" with
  | Error (Buildcache.Cache_corrupt { co_reason; _ }) ->
      Alcotest.(check bool) "mismatch named" true
        (Astring.String.is_infix ~affix:"holds another spec" co_reason)
  | Ok _ -> Alcotest.fail "an entry for another DAG must not extract"
  | Error e -> Alcotest.failf "wrong error: %s" (Buildcache.error_to_string e));
  Alcotest.(check bool) "nothing materialized" false (Vfs.exists vfs "/dest");
  match Buildcache.entry_spec cache ~hash with
  | Ok s ->
      Alcotest.(check bool) "entry_spec decodes the stored DAG" true
        (Concrete.equal s stored)
  | Error e -> Alcotest.failf "entry_spec: %s" (Buildcache.error_to_string e)

(* every file under [prefix], with its bytes (links as their targets) *)
let tree vfs prefix =
  let plen = String.length prefix + 1 in
  List.filter_map
    (fun (path, kind) ->
      let rel = String.sub path plen (String.length path - plen) in
      let body =
        match kind with
        | Vfs.Dir -> Ok "dir"
        | Vfs.File -> Vfs.read_file vfs path
        | Vfs.Symlink -> Result.map (( ^ ) "link:") (Vfs.readlink vfs path)
      in
      match body with
      | Ok b -> Some (rel, b)
      | Error e -> Alcotest.failf "read %s: %s" path (Vfs.error_to_string e))
    (Vfs.walk vfs prefix)

(* a pull into [/opt/bb] from entries built under [/opt/aaaa] leaves the
   prefixes a source build at [/opt/bb] leaves, file for file *)
let pull_equals_build () =
  let spec = concretize "dyninst" in
  let install inst =
    match Installer.install inst spec with
    | Ok outcomes -> outcomes
    | Error e -> Alcotest.failf "install: %s" e
  in
  let src_vfs = Vfs.create () in
  let cache = Buildcache.create src_vfs ~root:"/cache" in
  let src =
    Installer.create ~vfs:src_vfs ~repo ~compilers ~install_root:"/opt/aaaa" ()
  in
  ignore (install src);
  (match Installer.push_to_cache src cache with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "push: %s" e);
  let pull =
    Installer.create ~vfs:src_vfs ~repo ~compilers ~install_root:"/opt/bb"
      ~cache ()
  in
  let pulled = install pull in
  Alcotest.(check int) "every node pulled" (List.length pulled)
    (List.length
       (List.filter (fun o -> o.Installer.o_cached) pulled));
  let build_vfs = Vfs.create () in
  let built =
    install
      (Installer.create ~vfs:build_vfs ~repo ~compilers ~install_root:"/opt/bb"
         ())
  in
  List.iter2
    (fun (p : Installer.outcome) (b : Installer.outcome) ->
      let prefix = p.o_record.Database.r_prefix in
      Alcotest.(check string) "same prefix" prefix b.o_record.Database.r_prefix;
      Alcotest.(check (list (pair string string)))
        ("files of " ^ prefix) (tree build_vfs prefix) (tree src_vfs prefix))
    pulled built

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
          Alcotest.test_case "format 1 refused" `Quick format1_refused;
          Alcotest.test_case "paths leaving the prefix refused" `Quick
            escaping_paths_refused;
          Alcotest.test_case "another DAG's entry refused, still decodes"
            `Quick foreign_spec_refused;
          QCheck_alcotest.to_alcotest damaged_entries_refused;
          Alcotest.test_case "pull equals a source build, file for file"
            `Quick pull_equals_build;
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
