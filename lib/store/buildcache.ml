module Vfs = Ospack_vfs.Vfs
module Sharded_dir = Ospack_vfs.Sharded_dir
module Concrete = Ospack_spec.Concrete
module Json = Ospack_json.Json
module Binary = Ospack_buildsim.Binary

type t = { vfs : Vfs.t; root : string }

(* Typed errors so callers (the installer's fallback path, the mirror
   fleet's failover logic) can distinguish a transient I/O fault from a
   corrupt or missing entry without string matching. [error_to_string]
   renders every case with the exact legacy prose. *)
type error =
  | Cache_io of { io_op : string; io_path : string; io_cause : Vfs.error }
      (** the virtual filesystem refused an operation — transient when the
          cause is an injected fault *)
  | Cache_corrupt of { co_path : string; co_reason : string }
      (** the entry exists but cannot be trusted: unparseable JSON,
          missing fields, or a file list shorter than its recorded count *)
  | Cache_missing of string  (** no entry for the hash, on any path *)
  | Bad_prefix of { bp_prefix : string; bp_reason : string }
      (** the prefix offered for archiving is unusable *)

let error_to_string = function
  | Cache_io { io_op; io_path; io_cause } ->
      Printf.sprintf "buildcache: %s %s: %s" io_op io_path
        (Vfs.error_to_string io_cause)
  | Cache_corrupt { co_reason; _ } -> "buildcache: " ^ co_reason
  | Cache_missing hash -> Printf.sprintf "buildcache: no entry for %s" hash
  | Bad_prefix { bp_reason; _ } -> "buildcache: " ^ bp_reason

(* a fault-injected op is worth retrying or failing over to another
   mirror; everything else (corruption, absence) is not *)
let transient = function
  | Cache_io { io_cause = Vfs.Fault_injected _; _ } -> true
  | Cache_io _ | Cache_corrupt _ | Cache_missing _ | Bad_prefix _ -> false

let create vfs ~root = { vfs; root }

let root t = t.root

(* Entries live in a {!Sharded_dir} — the store index's layout — so a
   fleet-sized cache never funnels every entry through one directory
   listing. That is the only layout read: a file directly under the root
   is not an entry. *)
let entry_path t hash = Sharded_dir.path ~root:t.root hash

let find_entry t hash =
  let path = entry_path t hash in
  if Vfs.is_file t.vfs path then Some path else None

let has t ~hash = find_entry t hash <> None
let cached_hashes t = Sharded_dir.keys t.vfs ~root:t.root

let ( let* ) = Result.bind

let io op path = function
  | Ok v -> Ok v
  | Error e -> Error (Cache_io { io_op = op; io_path = path; io_cause = e })

(* On disk an entry is format 2, laid out like a tarball so a pull reads
   each byte once and decodes no file body:

   {v
   {"format":2,"install_root":R,"prefix":P,"file_count":N,"spec_bytes":S}
   <the S bytes of the compact spec JSON>
   <kind> <rel_len> <content_len>
   <rel><content>...
   v}

   one compact JSON header line, the spec and a newline, then [N]
   records whose header line gives the byte lengths of the path and the
   body that follow it. [kind] is [dir], [file] or [link] (a link's
   content is its target). *)
let format = 2

let kind_tag = function Vfs.Dir -> "dir" | Vfs.File -> "file" | Vfs.Symlink -> "link"

(* does [path] live at or under [prefix], on a path-component boundary? *)
let under ~prefix path =
  let plen = String.length prefix in
  String.length path >= plen
  && String.sub path 0 plen = prefix
  && (String.length path = plen || path.[plen] = '/')

let spec_bytes spec = Json.to_string (Concrete.to_json spec)

let render_entry ~install_root ~prefix ~spec files =
  let spec = spec_bytes spec in
  let header =
    Json.to_string
      (Json.Obj
         [
           ("format", Json.Int format);
           ("install_root", Json.String install_root);
           ("prefix", Json.String prefix);
           ("file_count", Json.Int (List.length files));
           ("spec_bytes", Json.Int (String.length spec));
         ])
  in
  let buf = Buffer.create (String.length header + String.length spec + 4096) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf spec;
  Buffer.add_char buf '\n';
  List.iter
    (fun (rel, kind, content) ->
      Printf.bprintf buf "%s %d %d\n" (kind_tag kind) (String.length rel)
        (String.length content);
      Buffer.add_string buf rel;
      Buffer.add_string buf content)
    files;
  Buffer.contents buf

let archive_prefix t ~prefix =
  (* every walk entry must archive; a file we cannot read is an error,
     not a silent omission — a truncated entry would later extract
     "successfully" into a broken prefix. Directories are archived too
     so empty ones survive the round trip. *)
  let plen = String.length prefix + 1 in
  let* rev_files =
    List.fold_left
      (fun acc (path, kind) ->
        let* acc = acc in
        let rel = String.sub path plen (String.length path - plen) in
        let* content =
          match kind with
          | Vfs.Dir -> Ok ""
          | Vfs.File -> io "read" path (Vfs.read_file t.vfs path)
          | Vfs.Symlink -> io "read" path (Vfs.readlink t.vfs path)
        in
        Ok ((rel, kind, content) :: acc))
      (Ok []) (Vfs.walk t.vfs prefix)
  in
  Ok (List.rev rev_files)

let save t ~install_root (record : Database.record) =
  if has t ~hash:record.Database.r_hash then Ok ()
  else
    let prefix = record.Database.r_prefix in
    let bad_prefix reason =
      Error (Bad_prefix { bp_prefix = prefix; bp_reason = reason })
    in
    if not (Vfs.is_dir t.vfs prefix) then
      bad_prefix
        (Printf.sprintf "prefix %s of %s is not a directory" prefix
           record.Database.r_hash)
    else if not (under ~prefix:install_root prefix) then
      (* readers refuse a header that breaks this rule, so a damaged
         root cannot pass for another relocation *)
      bad_prefix
        (Printf.sprintf "prefix %s is not under install root %s" prefix
           install_root)
    else
      let* files = archive_prefix t ~prefix in
      if files = [] then
        bad_prefix (Printf.sprintf "refusing to archive empty prefix %s" prefix)
      else
        (* crash-safe: the bytes land under a [.tmp] name and become
           visible only through the atomic rename — a kill at any barrier
           leaves either no entry or a complete one, never a truncated
           entry that would poison later extracts *)
        match
          Sharded_dir.write t.vfs ~root:t.root record.Database.r_hash
            (render_entry ~install_root ~prefix ~spec:record.Database.r_spec
               files)
        with
        | Ok () -> Ok ()
        | Error (io_op, io_path, io_cause) ->
            Error (Cache_io { io_op; io_path; io_cause })

(* Textual relocation, path-token-boundary-aware: an occurrence of
   [from_root] rewrites only when it is not embedded inside a longer
   path token on either side — [/opt/spack/bin] relocates, the distinct
   root [/opt/spack2] and the mid-path [/usr/opt/spack] do not.
   Boundary = any character outside the path-token alphabet
   [A-Za-z0-9._+-] (or the text edge); '/' is a boundary, so path
   continuations still match. [relocate_many] applies several
   replacements in one left-to-right scan (longest source first, no
   chaining), which is what splicing needs: per-dependency prefix swaps
   must win over the blanket root swap. *)
let is_token_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '+' || c = '-'

(* One scan per text. [relocate_many ~pairs] does its set-up once and
   returns the scanner: a 256-entry table marks the bytes a source can
   start with, so any other position costs one table read. Candidates
   are compared in place, untouched runs are copied whole, and a text
   with no match is returned as is. *)
let relocate_many ~pairs =
  let pairs =
    List.filter (fun (f, r) -> f <> "" && f <> r) pairs
    |> List.stable_sort (fun (a, _) (b, _) ->
           compare (String.length b) (String.length a))
  in
  let starts = Bytes.make 256 '\000' in
  List.iter (fun (f, _) -> Bytes.set starts (Char.code f.[0]) '\001') pairs;
  fun text ->
    let n = String.length text in
    let rec same_at i f j =
      j = String.length f
      || (String.unsafe_get text (i + j) = String.unsafe_get f j
         && same_at i f (j + 1))
    in
    let rec pair_at i = function
      | [] -> None
      | ((f, _) as pair) :: rest ->
          let flen = String.length f in
          if
            i + flen <= n
            && same_at i f 0
            && (i + flen = n || not (is_token_char text.[i + flen]))
          then Some (i, pair)
          else pair_at i rest
    in
    (* the first match at or after [i], with its position *)
    let rec next_match i =
      if i >= n then None
      else if
        Bytes.unsafe_get starts (Char.code (String.unsafe_get text i))
        = '\000'
        || (i > 0 && is_token_char text.[i - 1])
      then next_match (i + 1)
      else
        match pair_at i pairs with
        | None -> next_match (i + 1)
        | found -> found
    in
    match next_match 0 with
    | None -> text
    | first ->
        let buf = Buffer.create (n + 64) in
        let rec emit run = function
          | None -> Buffer.add_substring buf text run (n - run)
          | Some (i, (f, r)) ->
              Buffer.add_substring buf text run (i - run);
              Buffer.add_string buf r;
              let next = i + String.length f in
              emit next (next_match next)
        in
        emit 0 first;
        Buffer.contents buf

let relocate ~from_root ~to_root =
  relocate_many ~pairs:[ (from_root, to_root) ]

let corrupt path reason = Error (Cache_corrupt { co_path = path; co_reason = reason })

type parsed_entry = {
  pe_path : string;
  pe_install_root : string;
  pe_spec : string;  (** the stored spec JSON, not decoded *)
  pe_files : (string * Vfs.kind * string) list;  (** rel, kind, content *)
}

(* A decimal natural at [i], at most 16 digits so it cannot overflow:
   its value and the index after it. *)
let nat s i =
  let n = String.length s in
  let rec go j acc =
    if j < n && j - i < 16 && s.[j] >= '0' && s.[j] <= '9' then
      go (j + 1) ((acc * 10) + Char.code s.[j] - Char.code '0')
    else if j = i then None
    else Some (acc, j)
  in
  go i 0

let kind_at s i =
  let tag t k =
    let l = String.length t in
    if i + l < String.length s && String.sub s i l = t && s.[i + l] = ' ' then
      Some (k, i + l + 1)
    else None
  in
  match s.[i] with
  | 'd' -> tag "dir" Vfs.Dir
  | 'f' -> tag "file" Vfs.File
  | 'l' -> tag "link" Vfs.Symlink
  | _ -> None

(* One record at [i]: [<kind> <rel_len> <content_len>\n<rel><content>].
   Slices the two strings; never reads past the entry. *)
let record_at s i =
  let ( let* ) = Option.bind in
  let n = String.length s in
  let* kind, j = kind_at s i in
  let* rel_len, j = nat s j in
  let* () = if j < n && s.[j] = ' ' then Some () else None in
  let* content_len, j = nat s (j + 1) in
  let* () = if j < n && s.[j] = '\n' then Some () else None in
  let body = j + 1 in
  if rel_len + content_len > n - body then None
  else
    Some
      ( (String.sub s body rel_len, kind, String.sub s (body + rel_len) content_len),
        body + rel_len + content_len )

(* A path that stays inside the prefix it is joined to: no empty, [.]
   or [..] component, hence no leading or trailing slash. *)
let inside rel =
  List.for_all
    (fun c -> c <> "" && c <> "." && c <> "..")
    (String.split_on_char '/' rel)

(* Read and frame an entry: header, spec slice, every record. The spec
   is not decoded; nothing is written. *)
let load_entry t ~hash =
  match find_entry t hash with
  | None -> Error (Cache_missing hash)
  | Some path ->
      let* s = io "read" path (Vfs.read_file t.vfs path) in
      let corrupt = corrupt path in
      (* a format-1 entry is one JSON line: it parses whole as its
         header, to be refused by its format *)
      let nl = Option.value (String.index_opt s '\n') ~default:(String.length s) in
      let* header =
        match Json.of_string (String.sub s 0 nl) with
        | Ok h -> Ok h
        | Error e -> corrupt ("entry " ^ hash ^ ": " ^ e)
      in
      let spec_off = nl + 1 in
      let field key get =
        match Option.bind (Json.member key header) get with
        | Some v -> Ok v
        | None -> corrupt ("entry missing " ^ key)
      in
      let* () =
        match Option.bind (Json.member "format" header) Json.get_int with
        | Some f when f = format -> Ok ()
        | Some f -> corrupt (Printf.sprintf "unsupported format %d" f)
        | None -> corrupt "entry missing format"
      in
      let* install_root = field "install_root" Json.get_string in
      let* prefix = field "prefix" Json.get_string in
      let* () =
        if under ~prefix:install_root prefix then Ok ()
        else
          corrupt
            (Printf.sprintf "entry %s: prefix %s is not under install root %s"
               hash prefix install_root)
      in
      (* completeness guard: without a count a truncation at a record
         boundary would be undetectable, so a count-less entry is refused *)
      let* file_count = field "file_count" Json.get_int in
      let* spec_len = field "spec_bytes" Json.get_int in
      let n = String.length s in
      let* () =
        if spec_len >= 0 && spec_len < n - spec_off
           && s.[spec_off + spec_len] = '\n'
        then Ok ()
        else corrupt (Printf.sprintf "entry %s: spec runs past its length" hash)
      in
      let rec records i k acc =
        if i = n then
          if k = file_count then Ok (List.rev acc)
          else
            corrupt
              (Printf.sprintf
                 "truncated entry %s: %d files listed, %d expected" hash k
                 file_count)
        else if k = file_count then
          corrupt
            (Printf.sprintf "entry %s: %d bytes after its %d files" hash (n - i)
               file_count)
        else
          match record_at s i with
          | Some (((rel, _, _) as file), next) ->
              if inside rel then records next (k + 1) (file :: acc)
              else
                corrupt
                  (Printf.sprintf "entry %s: file path %S leaves the prefix"
                     hash rel)
          | None ->
              corrupt
                (Printf.sprintf "entry %s: malformed or truncated file %d"
                   hash (k + 1))
      in
      let* files = records (spec_off + spec_len + 1) 0 [] in
      Ok
        {
          pe_path = path;
          pe_install_root = install_root;
          pe_spec = String.sub s spec_off spec_len;
          pe_files = files;
        }

let entry_spec t ~hash =
  let* pe = load_entry t ~hash in
  match Json.of_string pe.pe_spec with
  | Error e -> corrupt pe.pe_path ("entry " ^ hash ^ ": " ^ e)
  | Ok j -> (
      match Concrete.of_json j with
      | Ok s -> Ok s
      | Error e -> corrupt pe.pe_path e)

(* the on-the-wire size of an entry — what a mirror transfer costs *)
let entry_size t ~hash =
  match find_entry t hash with
  | None -> None
  | Some path -> (
      match Vfs.read_file t.vfs path with
      | Ok content -> Some (String.length content)
      | Error _ -> None)

(* Extraction never trusts a pre-existing destination: a prefix holding
   any path the entry does not list came from a different entry (or a
   partial build) and its orphans would keep resolving under the loader.
   A mismatched prefix is cleared wholesale before materializing; a
   prefix that is a subset of the entry is overwritten in place (the
   stale-symlink re-extract path below). *)
let reconcile_prefix t ~prefix files =
  if not (Vfs.is_dir t.vfs prefix) then Ok ()
  else
    let expected = List.map (fun (rel, _, _) -> rel) files in
    let plen = String.length prefix + 1 in
    let stale =
      List.exists
        (fun (path, _) ->
          let rel = String.sub path plen (String.length path - plen) in
          not (List.mem rel expected))
        (Vfs.walk t.vfs prefix)
    in
    if stale then io "remove" prefix (Vfs.remove t.vfs ~recursive:true prefix)
    else Ok ()

(* Materialize the entry's files and return the payload just written:
   one manifest line per file and symlink, after relocation, in entry
   order — the walk order of the archived prefix, hence of this one. *)
let materialize t ~prefix ~reloc_file ~reloc_link files =
  let symlink ~target dest =
    let recreate () =
      let* () = io "remove" dest (Vfs.remove t.vfs ~recursive:true dest) in
      io "symlink" dest (Vfs.symlink t.vfs ~target ~link:dest)
    in
    match Vfs.symlink t.vfs ~target ~link:dest with
    | Ok () -> Ok ()
    | Error (Vfs.Already_exists _) -> (
        (* re-extract: keep an identical link, but never a stale one
           whose target (e.g. under a different install root)
           changed, and never a non-link squatting on the path *)
        match Vfs.kind_of t.vfs dest with
        | Some Vfs.Symlink -> (
            match Vfs.readlink t.vfs dest with
            | Ok existing when existing = target -> Ok ()
            | Ok _ | Error _ -> recreate ())
        | _ -> recreate ())
    | Error e ->
        Error (Cache_io { io_op = "symlink"; io_path = dest; io_cause = e })
  in
  let manifested rel kind content rev_payload =
    match Provenance.manifest_entry ~rel kind (fun () -> Some content) with
    | Some line -> line :: rev_payload
    | None -> rev_payload
  in
  let* rev_payload =
    List.fold_left
      (fun acc (rel, kind, content) ->
        let* rev_payload = acc in
        let dest = prefix ^ "/" ^ rel in
        match kind with
        | Vfs.Dir ->
            let* () = io "mkdir" dest (Vfs.mkdir_p t.vfs dest) in
            Ok rev_payload
        | Vfs.File ->
            let content = reloc_file content in
            let* () = io "write" dest (Vfs.write_file t.vfs dest content) in
            Ok (manifested rel Vfs.File content rev_payload)
        | Vfs.Symlink ->
            let target = reloc_link content in
            let* () = symlink ~target dest in
            Ok (manifested rel Vfs.Symlink target rev_payload))
      (Ok []) files
  in
  Ok (List.rev rev_payload)

let extract t ~spec ~install_root ~prefix =
  let hash = Concrete.root_hash spec in
  let* pe = load_entry t ~hash in
  (* the stored spec, byte for byte: cheaper than decoding it, and proof
     that the entry is the DAG being installed rather than merely some DAG *)
  let* () =
    if String.equal pe.pe_spec (spec_bytes spec) then Ok ()
    else
      corrupt pe.pe_path
        (Printf.sprintf "entry %s holds another spec than %s/%s" hash
           (Concrete.root spec) hash)
  in
  let* () = reconcile_prefix t ~prefix pe.pe_files in
  let reloc = relocate ~from_root:pe.pe_install_root ~to_root:install_root in
  materialize t ~prefix ~reloc_file:reloc ~reloc_link:reloc pe.pe_files

(* ------------------------------------------------------------------ *)
(* Splicing (spack splice): rewire a cached binary onto a different
   dependency's installed prefix without rebuilding.                   *)

(* Build the spliced DAG: the replacement's nodes override the original's
   same-named nodes (and bring any new transitive dependencies along);
   [Concrete.make] re-validates edges and acyclicity, [subspec] prunes
   nodes the new root no longer reaches, and — because a node's DAG hash
   covers its dependencies' hashes — every node above the replacement
   recomputes its hash automatically. Returns the spliced spec and the
   replacement's root package name. *)
let splice_spec ~orig ~replacement =
  let dep = Concrete.root replacement in
  match Concrete.node orig dep with
  | None ->
      Error
        (Printf.sprintf "splice: %s does not depend on %s"
           (Concrete.root orig) dep)
  | Some _ when Concrete.root orig = dep ->
      Error
        (Printf.sprintf "splice: cannot replace the root package %s itself"
           dep)
  | Some _ ->
      if Concrete.dag_hash orig dep = Concrete.root_hash replacement then
        Error
          (Printf.sprintf
             "splice: replacement %s/%s is already the installed dependency"
             dep
             (Concrete.root_hash replacement))
      else
        let replaced name = Concrete.node replacement name <> None in
        let merged =
          List.filter (fun n -> not (replaced n.Concrete.name))
            (Concrete.nodes orig)
          @ Concrete.nodes replacement
        in
        let* spliced =
          match Concrete.make ~root:(Concrete.root orig) merged with
          | Ok s -> Ok s
          | Error e ->
              Error
                (Format.asprintf "splice: invalid spliced spec: %a"
                   Concrete.pp_validation_error e)
        in
        Ok (Concrete.subspec spliced (Concrete.root orig), dep)

let swap_prefix pairs path =
  match List.find_opt (fun (old_p, _) -> under ~prefix:old_p path) pairs with
  | Some (old_p, new_p) ->
      new_p ^ String.sub path (String.length old_p)
               (String.length path - String.length old_p)
  | None -> path

(* Materialize a cached entry into [prefix] with its dependency prefixes
   rewired through [prefix_map] (old installed prefix -> new installed
   prefix), on top of the usual root relocation. Files that parse as
   simulated ELF objects get a structured rewrite — each RPATH entry is
   swapped on exact prefix-component boundaries, the paper's §3.5
   relocation machinery doing new work — and everything else goes through
   the boundary-aware textual pass. Returns the number of binaries whose
   RPATHs changed. *)
let splice t ~hash ~install_root ~prefix ~prefix_map =
  let* pe = load_entry t ~hash in
  let* () = reconcile_prefix t ~prefix pe.pe_files in
  (* two passes: the blanket root relocation first (bringing the entry
     into the target store's coordinates — identity when the roots
     match), then the per-dependency prefix swaps, which are expressed in
     those target coordinates. New prefixes embed new DAG hashes, so the
     second pass can never re-match its own output. *)
  let base = relocate ~from_root:pe.pe_install_root ~to_root:install_root in
  let specific = relocate_many ~pairs:prefix_map in
  let textual content = specific (base content) in
  let rewired = ref 0 in
  let reloc_file content =
    match Binary.parse content with
    | Error _ -> textual content
    | Ok bin ->
        let changed = ref false in
        let bin' =
          Binary.map_rpaths
            (fun rp ->
              let rp =
                swap_prefix [ (pe.pe_install_root, install_root) ] rp
              in
              let rp' = swap_prefix prefix_map rp in
              if rp' <> rp then changed := true;
              rp')
            bin
        in
        if !changed then incr rewired;
        Binary.serialize bin'
  in
  let* payload =
    materialize t ~prefix ~reloc_file ~reloc_link:textual pe.pe_files
  in
  Ok (!rewired, payload)
