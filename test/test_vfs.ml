(* The virtual filesystem: POSIX-ish semantics, symlink resolution, walk,
   removal, operation counters. *)

open Ospack_vfs

let err = Alcotest.testable Vfs.pp_error ( = )

let vpath_cases () =
  Alcotest.(check string) "normalize dots" "/a/b" (Vpath.normalize "/a/./b/");
  Alcotest.(check string) "normalize dotdot" "/a/c" (Vpath.normalize "/a/b/../c");
  Alcotest.(check string) "dotdot above root" "/x" (Vpath.normalize "/../../x");
  Alcotest.(check string) "duplicate slashes" "/a/b" (Vpath.normalize "//a///b");
  Alcotest.(check string) "join relative" "/a/b/c" (Vpath.join "/a/b" "c");
  Alcotest.(check string) "join absolute" "/c" (Vpath.join "/a/b" "/c");
  Alcotest.(check string) "join with updir" "/a/c" (Vpath.join "/a/b" "../c");
  Alcotest.(check string) "dirname" "/a" (Vpath.dirname "/a/b");
  Alcotest.(check string) "dirname of root" "/" (Vpath.dirname "/");
  Alcotest.(check string) "basename" "b" (Vpath.basename "/a/b")

let file_roundtrip () =
  let fs = Vfs.create () in
  Alcotest.(check (result unit err)) "write" (Ok ())
    (Vfs.write_file fs "/opt/pkg/lib/libfoo.so" "content");
  Alcotest.(check (result string err)) "read back" (Ok "content")
    (Vfs.read_file fs "/opt/pkg/lib/libfoo.so");
  Alcotest.(check (result unit err)) "overwrite" (Ok ())
    (Vfs.write_file fs "/opt/pkg/lib/libfoo.so" "v2");
  Alcotest.(check (result string err)) "overwritten" (Ok "v2")
    (Vfs.read_file fs "/opt/pkg/lib/libfoo.so");
  Alcotest.(check bool) "parents created" true (Vfs.is_dir fs "/opt/pkg");
  Alcotest.(check bool) "missing file" false (Vfs.exists fs "/opt/pkg/nope")

let error_cases () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/a/file" "x");
  Alcotest.(check (result string err)) "read missing"
    (Error (Vfs.Not_found "/a/nope"))
    (Vfs.read_file fs "/a/nope");
  Alcotest.(check bool) "file in the way of mkdir" true
    (Result.is_error (Vfs.mkdir_p fs "/a/file/sub"));
  Alcotest.(check bool) "write through a file component" true
    (Result.is_error (Vfs.write_file fs "/a/file/sub/x" "y"));
  Alcotest.(check bool) "read a directory" true
    (Result.is_error (Vfs.read_file fs "/a"));
  Alcotest.(check bool) "write over a directory" true
    (Result.is_error (Vfs.write_file fs "/a" "y"))

let symlink_cases () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/opt/real/bin/tool" "binary");
  Alcotest.(check (result unit err)) "make link" (Ok ())
    (Vfs.symlink fs ~target:"/opt/real" ~link:"/views/tool");
  Alcotest.(check (result string err)) "read through link" (Ok "binary")
    (Vfs.read_file fs "/views/tool/bin/tool");
  Alcotest.(check (result string err)) "readlink" (Ok "/opt/real")
    (Vfs.readlink fs "/views/tool");
  Alcotest.(check (result string err)) "resolve canonicalizes"
    (Ok "/opt/real/bin/tool")
    (Vfs.resolve fs "/views/tool/bin/tool");
  (* relative link targets resolve against the link's directory *)
  ignore (Vfs.symlink fs ~target:"real/bin" ~link:"/opt/alias");
  Alcotest.(check (result string err)) "relative target" (Ok "binary")
    (Vfs.read_file fs "/opt/alias/tool");
  (* links may dangle; resolution reports the missing target *)
  ignore (Vfs.symlink fs ~target:"/nowhere" ~link:"/views/dangling");
  Alcotest.(check bool) "dangling does not resolve" false
    (Vfs.exists fs "/views/dangling");
  Alcotest.(check bool) "kind_of sees the link" true
    (Vfs.kind_of fs "/views/dangling" = Some Vfs.Symlink);
  Alcotest.(check bool) "cannot overwrite with a link" true
    (Result.is_error (Vfs.symlink fs ~target:"/x" ~link:"/views/tool"))

let symlink_loops () =
  let fs = Vfs.create () in
  ignore (Vfs.symlink fs ~target:"/b" ~link:"/a");
  ignore (Vfs.symlink fs ~target:"/a" ~link:"/b");
  match Vfs.resolve fs "/a" with
  | Error (Vfs.Symlink_loop _) -> ()
  | Error e -> Alcotest.failf "expected loop, got %s" (Vfs.error_to_string e)
  | Ok p -> Alcotest.failf "resolved a loop to %s" p

let ls_and_walk () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/p/bin/tool" "x");
  ignore (Vfs.write_file fs "/p/lib/libx.so" "y");
  ignore (Vfs.symlink fs ~target:"/p/lib/libx.so" ~link:"/p/lib/libx.so.1");
  Alcotest.(check (result (slist string compare) err)) "ls" (Ok [ "bin"; "lib" ])
    (Vfs.ls fs "/p");
  let walked = Vfs.walk fs "/p" in
  Alcotest.(check int) "walk entries" 5 (List.length walked);
  Alcotest.(check bool) "walk reports symlink kind" true
    (List.mem ("/p/lib/libx.so.1", Vfs.Symlink) walked);
  Alcotest.(check int) "walk of a file is empty" 0
    (List.length (Vfs.walk fs "/p/bin/tool"))

let removal () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/p/a" "1");
  ignore (Vfs.write_file fs "/p/d/b" "2");
  Alcotest.(check bool) "refuse non-empty dir" true
    (Result.is_error (Vfs.remove fs "/p"));
  Alcotest.(check (result unit err)) "recursive remove" (Ok ())
    (Vfs.remove fs ~recursive:true "/p");
  Alcotest.(check bool) "gone" false (Vfs.exists fs "/p");
  Alcotest.(check bool) "remove missing errors" true
    (Result.is_error (Vfs.remove fs "/p"));
  (* removing a symlink leaves its target *)
  ignore (Vfs.write_file fs "/t/file" "x");
  ignore (Vfs.symlink fs ~target:"/t/file" ~link:"/l");
  ignore (Vfs.remove fs "/l");
  Alcotest.(check bool) "target survives" true (Vfs.exists fs "/t/file")

let counters () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/deep/a/b/c/file" "x");
  let c = Vfs.counters fs in
  Alcotest.(check bool) "writes counted" true (c.Vfs.write > 0);
  Alcotest.(check bool) "mkdirs counted" true (c.Vfs.mkdir >= 4);
  Alcotest.(check bool) "stats counted" true (c.Vfs.stat > 0);
  Vfs.reset_counters fs;
  Alcotest.(check int) "reset" 0 (Vfs.counters fs).Vfs.write

(* property: apply writes in order; the last successful write per path is
   what reads back *)
let arb_files =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (pair
           (map
              (fun parts -> "/" ^ String.concat "/" parts)
              (list_size (int_range 1 4)
                 (oneofl [ "a"; "b"; "c"; "dir"; "f" ])))
           (string_size ~gen:printable (int_bound 20))))
  in
  QCheck.make gen

let rename_cases () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/db/cache.json.tmp" "v1");
  (* plain move, parents created on demand *)
  Alcotest.(check (result unit err)) "move" (Ok ())
    (Vfs.rename fs ~src:"/db/cache.json.tmp" ~dst:"/db/deep/cache.json");
  Alcotest.(check (result string err)) "content travels" (Ok "v1")
    (Vfs.read_file fs "/db/deep/cache.json");
  Alcotest.(check bool) "source gone" false (Vfs.exists fs "/db/cache.json.tmp");
  (* the write-then-rename pattern: rename atomically replaces the
     destination, readers see old or new content, never a torn file *)
  ignore (Vfs.write_file fs "/db/deep/cache.json.tmp" "v2");
  Alcotest.(check (result unit err)) "replace existing" (Ok ())
    (Vfs.rename fs ~src:"/db/deep/cache.json.tmp" ~dst:"/db/deep/cache.json");
  Alcotest.(check (result string err)) "replaced content" (Ok "v2")
    (Vfs.read_file fs "/db/deep/cache.json");
  (* error contract mirrors POSIX rename(2) *)
  Alcotest.(check (result unit err)) "missing source"
    (Error (Vfs.Not_found "/db/nope"))
    (Vfs.rename fs ~src:"/db/nope" ~dst:"/db/x");
  ignore (Vfs.mkdir_p fs "/db/dir");
  Alcotest.(check bool) "file over directory refused" true
    (Result.is_error
       (Vfs.rename fs ~src:"/db/deep/cache.json" ~dst:"/db/dir"));
  Alcotest.(check (result string err)) "refused rename left source intact"
    (Ok "v2")
    (Vfs.read_file fs "/db/deep/cache.json");
  (* a directory can move, and may land on an empty directory *)
  ignore (Vfs.write_file fs "/db/dir/f" "x");
  ignore (Vfs.mkdir_p fs "/db/empty");
  Alcotest.(check (result unit err)) "directory over empty directory" (Ok ())
    (Vfs.rename fs ~src:"/db/dir" ~dst:"/db/empty");
  Alcotest.(check (result string err)) "tree travels" (Ok "x")
    (Vfs.read_file fs "/db/empty/f");
  Alcotest.(check bool) "directory over file refused" true
    (Result.is_error (Vfs.rename fs ~src:"/db/empty" ~dst:"/db/deep/cache.json"));
  (* a directory never moves into its own subtree (POSIX EINVAL), even
     through a symlink; the refusal creates none of the destination's
     parents and leaves the tree where it was *)
  ignore (Vfs.symlink fs ~target:"/db/empty" ~link:"/inside");
  let before = Vfs.snapshot fs "/" in
  List.iter
    (fun dst ->
      Alcotest.(check (result unit err)) ("into its own subtree: " ^ dst)
        (Error (Vfs.Into_own_subtree { src = "/db"; dst }))
        (Vfs.rename fs ~src:"/db" ~dst);
      Alcotest.(check (list string)) ("refusal changed nothing: " ^ dst)
        before (Vfs.snapshot fs "/"))
    [ "/db/sub"; "/db/new/deeper/db"; "/db/empty/f2"; "/inside/x/y" ];
  Alcotest.(check (result string err)) "source intact after the refusals"
    (Ok "x")
    (Vfs.read_file fs "/db/empty/f");
  (* a non-empty directory renamed onto itself, directly or through a
     symlinked parent, is a POSIX no-op: success, the tree unchanged *)
  ignore (Vfs.symlink fs ~target:"/db" ~link:"/alias");
  let before = Vfs.snapshot fs "/" in
  List.iter
    (fun dst ->
      Alcotest.(check (result unit err)) ("onto itself: " ^ dst) (Ok ())
        (Vfs.rename fs ~src:"/db/empty" ~dst);
      Alcotest.(check (list string)) ("no-op left the tree: " ^ dst) before
        (Vfs.snapshot fs "/"))
    [ "/db/empty"; "/db//empty/"; "/alias/empty" ]

(* --- deterministic fault injection --- *)

let fault_barrier_counting () =
  let fs = Vfs.create () in
  Alcotest.(check int) "fresh fs has crossed no barriers" 0
    (Vfs.write_barriers fs);
  ignore (Vfs.write_file fs "/a" "1") (* barrier 1 *);
  ignore (Vfs.mkdir_p fs "/d") (* not a barrier *);
  ignore (Vfs.rename fs ~src:"/a" ~dst:"/d/a") (* barrier 2 *);
  ignore (Vfs.read_file fs "/d/a") (* not a barrier *);
  Alcotest.(check int) "writes and renames tick; reads and mkdirs do not" 2
    (Vfs.write_barriers fs);
  (* arming a plan resets the counter; the on_barrier hook mirrors every
     tick (how tests bridge the counter into an obs sink without vfs
     depending on obs) *)
  let ticks = ref 0 in
  Vfs.set_fault_plan fs ~on_barrier:(fun () -> incr ticks) [];
  Alcotest.(check int) "armed plan resets" 0 (Vfs.write_barriers fs);
  ignore (Vfs.write_file fs "/b" "2");
  ignore (Vfs.write_file fs "/c" "3");
  Alcotest.(check int) "hook fired per barrier" 2 !ticks;
  Alcotest.(check int) "counter agrees" 2 (Vfs.write_barriers fs);
  Vfs.clear_fault_plan fs;
  ignore (Vfs.write_file fs "/e" "4");
  Alcotest.(check int) "counter still ticks unarmed" 3 (Vfs.write_barriers fs)

let fault_fail_op () =
  let fs = Vfs.create () in
  Vfs.set_fault_plan fs [ 2; 3 ];
  Alcotest.(check (result unit err)) "barrier 1 passes" (Ok ())
    (Vfs.write_file fs "/w/one" "1");
  (* a planned write fails before mutating anything *)
  Alcotest.(check (result unit err)) "barrier 2 write fails"
    (Error (Vfs.Fault_injected { fi_op = "write"; fi_path = "/w/two" }))
    (Vfs.write_file fs "/w/two" "2");
  Alcotest.(check bool) "failed write left nothing" false
    (Vfs.exists fs "/w/two");
  (* a planned rename fails naming the destination, and moves nothing *)
  Alcotest.(check (result unit err)) "barrier 3 rename fails"
    (Error (Vfs.Fault_injected { fi_op = "rename"; fi_path = "/w/moved" }))
    (Vfs.rename fs ~src:"/w/one" ~dst:"/w/moved");
  Alcotest.(check (result string err)) "refused rename left source intact"
    (Ok "1")
    (Vfs.read_file fs "/w/one");
  (* Fail_op faults are transient: the plan exhausted, later ops succeed *)
  Alcotest.(check (result unit err)) "barrier 4 passes" (Ok ())
    (Vfs.rename fs ~src:"/w/one" ~dst:"/w/moved");
  Alcotest.(check int) "four barriers crossed" 4 (Vfs.write_barriers fs)

let fault_crash_mode () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/pre/keep" "safe");
  Vfs.set_fault_plan fs ~mode:Vfs.Crash [ 2 ];
  Alcotest.(check (result unit err)) "barrier 1 passes" (Ok ())
    (Vfs.write_file fs "/w/a" "1");
  Alcotest.(check (result unit err)) "barrier 2 is the kill"
    (Error (Vfs.Fault_injected { fi_op = "write"; fi_path = "/w/b" }))
    (Vfs.write_file fs "/w/b" "2");
  (* the process is dead at that boundary: every subsequent mutating
     operation fails, not just the planned ones... *)
  Alcotest.(check bool) "write dead" true
    (Result.is_error (Vfs.write_file fs "/w/c" "3"));
  Alcotest.(check bool) "rename dead" true
    (Result.is_error (Vfs.rename fs ~src:"/w/a" ~dst:"/w/z"));
  Alcotest.(check bool) "mkdir dead" true
    (Result.is_error (Vfs.mkdir_p fs "/w/dir"));
  Alcotest.(check bool) "symlink dead" true
    (Result.is_error (Vfs.symlink fs ~target:"/w/a" ~link:"/w/l"));
  Alcotest.(check bool) "remove dead" true
    (Result.is_error (Vfs.remove fs "/pre/keep"));
  (* ...while the pre-crash bytes stay readable, exactly like a disk *)
  Alcotest.(check (result string err)) "pre-crash bytes intact" (Ok "safe")
    (Vfs.read_file fs "/pre/keep");
  Alcotest.(check (result string err)) "barrier-1 write intact" (Ok "1")
    (Vfs.read_file fs "/w/a");
  (* disarming is the fresh process reopening the same disk *)
  Vfs.clear_fault_plan fs;
  Alcotest.(check (result unit err)) "alive again after clear" (Ok ())
    (Vfs.write_file fs "/w/c" "3")

let crash_sweep_protocol () =
  (* the harness behind every torture sweep, on write_atomic: the
     reference run counts two barriers, each kill point leaves the old
     file or the new one, and the check's results come back in order *)
  let world () =
    let fs = Vfs.create () in
    ignore (Vfs.write_file fs "/f" "old");
    (fs, fs)
  in
  let op fs =
    Result.map_error (fun (_, _, e) -> Vfs.error_to_string e)
      (Vfs.write_atomic fs "/f" "new")
  in
  let check _reference ~kill fs _ =
    (* a kill at either barrier precedes the rename *)
    match Vfs.read_file fs "/f" with
    | Ok "old" -> Ok (kill, Vfs.exists fs "/f.tmp")
    | Ok c -> Error ("unexpected content: " ^ c)
    | Error e -> Error (Vfs.error_to_string e)
  in
  (match Vfs.crash_sweep ~world ~op ~check () with
  | Error e -> Alcotest.fail e
  | Ok sweep ->
      Alcotest.(check int) "reference barriers" 2 sweep.Vfs.sw_barriers;
      Alcotest.(check (list (pair int bool)))
        "kill 1 before the tmp, kill 2 strands it" [ (1, false); (2, true) ]
        sweep.Vfs.sw_kills);
  (match
     Vfs.crash_sweep ~every:2 ~world ~op ~check:(fun _ ~kill _ _ -> Ok kill) ()
   with
  | Error e -> Alcotest.fail e
  | Ok sweep ->
      Alcotest.(check (list int)) "every 2 samples barrier 1" [ 1 ]
        sweep.Vfs.sw_kills);
  let expect_error msg expected got =
    Alcotest.(check (result reject string)) msg (Error expected)
      (Result.map (fun _ -> ()) got)
  in
  List.iter
    (fun every ->
      expect_error (Printf.sprintf "every %d rejected" every)
        "every must be >= 1"
        (Vfs.crash_sweep ~every ~world ~op ~check ()))
    [ 0; -1 ];
  expect_error "a failing reference run is reported"
    "reference run failed: nope"
    (Vfs.crash_sweep ~world ~op:(fun _ -> Error "nope") ~check ());
  expect_error "an operation that swallows the kill is caught"
    "kill point 1: the operation survived an armed crash plan"
    (Vfs.crash_sweep ~world ~op:(fun fs -> ignore (op fs); Ok ()) ~check ());
  expect_error "check errors name their kill point" "kill point 2: boom"
    (Vfs.crash_sweep ~world ~op
       ~check:(fun _ ~kill _ _ -> if kill = 2 then Error "boom" else Ok ())
       ())

let snapshot_renders_tree () =
  let fs = Vfs.create () in
  ignore (Vfs.write_file fs "/r/b/file" "bytes");
  ignore (Vfs.symlink fs ~target:"b/file" ~link:"/r/a");
  ignore (Vfs.mkdir_p fs "/r/c");
  Alcotest.(check (list string)) "one canonical line per node"
    [ "/r/a L b/file"; "/r/b D"; "/r/b/file F bytes"; "/r/c D" ]
    (Vfs.snapshot fs "/r");
  Alcotest.(check (list string)) "not a directory" []
    (Vfs.snapshot fs "/r/b/file")

let write_read_consistent =
  QCheck.Test.make ~name:"last write wins for every path" ~count:100 arb_files
    (fun files ->
      let fs = Vfs.create () in
      let applied =
        List.filter
          (fun (path, content) ->
            Result.is_ok (Vfs.write_file fs path content))
          files
      in
      let last = Hashtbl.create 16 in
      List.iter
        (fun (path, content) ->
          Hashtbl.replace last (Vpath.normalize path) content)
        applied;
      Hashtbl.fold
        (fun path content ok -> ok && Vfs.read_file fs path = Ok content)
        last true)

(* --- linear-time path walks against a reference ----------------------- *)

(* The reference filesystem: the same tree and the same operations, but
   every path step re-normalizes the whole accumulated path with the
   plain algorithm (no canonical fast path). The kernels must match it in
   results, error payloads, counters and barriers. *)
module Ref = struct
  type node = F of string ref | D of (string, node) Hashtbl.t | L of string

  type t = {
    root : (string, node) Hashtbl.t;
    c : Vfs.counters;
    mutable barriers : int;
  }

  let create () =
    {
      root = Hashtbl.create 16;
      c =
        { Vfs.stat = 0; read = 0; write = 0; mkdir = 0; link = 0; unlink = 0;
          readdir = 0 };
      barriers = 0;
    }

  let normalize p =
    let rec resolve acc = function
      | [] -> List.rev acc
      | ".." :: rest -> (
          match acc with [] -> resolve [] rest | _ :: up -> resolve up rest)
      | c :: rest -> resolve (c :: acc) rest
    in
    Vpath.concat (resolve [] (Vpath.split p))

  let join dir name =
    if Vpath.is_absolute name then normalize name
    else normalize (dir ^ "/" ^ name)

  let ( let* ) = Result.bind

  let rec lookup fs ~follow_last ~hops path =
    let rec step dir dir_path remaining hops =
      fs.c.stat <- fs.c.stat + 1;
      match remaining with
      | [] -> Ok (dir_path, D dir, hops)
      | name :: rest -> (
          match Hashtbl.find_opt dir name with
          | None -> Error (Vfs.Not_found (join dir_path name))
          | Some node -> (
              let here = join dir_path name in
              match node with
              | D d -> step d here rest hops
              | F _ when rest = [] -> Ok (here, node, hops)
              | F _ -> Error (Vfs.Not_a_directory here)
              | L target ->
                  if rest = [] && not follow_last then Ok (here, node, hops)
                  else if hops <= 0 then Error (Vfs.Symlink_loop here)
                  else
                    let full =
                      normalize
                        (join (Vpath.dirname here) target
                        ^ "/" ^ String.concat "/" rest)
                    in
                    lookup fs ~follow_last ~hops:(hops - 1) full))
    in
    step fs.root "/" (Vpath.split (normalize path)) hops

  let lookup_node fs ~follow_last path =
    Result.map (fun (p, n, _) -> (p, n)) (lookup fs ~follow_last ~hops:40 path)

  (* missing parents are created unless [create] is false; with [stop],
     the walk ends at the first missing component instead, returning the
     directory it reached *)
  let parent_dir ?(create = true) ?(stop = false) fs path =
    match List.rev (Vpath.split (normalize path)) with
    | [] -> Error (Vfs.Is_a_directory "/")
    | name :: rev_parents ->
        let rec descend dir dir_path = function
          | [] -> Ok (dir, name)
          | c :: rest -> (
              fs.c.stat <- fs.c.stat + 1;
              let here = join dir_path c in
              match Hashtbl.find_opt dir c with
              | Some (D d) -> descend d here rest
              | Some (L _) -> (
                  match lookup_node fs ~follow_last:true here with
                  | Ok (_, D d) -> descend d here rest
                  | Ok _ -> Error (Vfs.Not_a_directory here)
                  | Error e -> Error e)
              | Some (F _) -> Error (Vfs.Not_a_directory here)
              | None when stop -> Ok (dir, c)
              | None when not create -> Error (Vfs.Not_found here)
              | None ->
                  fs.c.mkdir <- fs.c.mkdir + 1;
                  let d = Hashtbl.create 8 in
                  Hashtbl.replace dir c (D d);
                  descend d here rest)
        in
        descend fs.root "/" (List.rev rev_parents)

  let mkdir_p fs path =
    if normalize path = "/" then Ok ()
    else
      let* dir, name = parent_dir fs path in
      match Hashtbl.find_opt dir name with
      | Some (D _) -> Ok ()
      | Some _ -> Error (Vfs.Not_a_directory (normalize path))
      | None ->
          fs.c.mkdir <- fs.c.mkdir + 1;
          Hashtbl.replace dir name (D (Hashtbl.create 8));
          Ok ()

  let write_file fs path content =
    fs.barriers <- fs.barriers + 1;
    let* dir, name = parent_dir fs path in
    fs.c.write <- fs.c.write + 1;
    match Hashtbl.find_opt dir name with
    | Some (D _) -> Error (Vfs.Is_a_directory (normalize path))
    | Some (F r) ->
        r := content;
        Ok ()
    | Some (L t) -> (
        match lookup_node fs ~follow_last:true path with
        | Ok (_, F r) ->
            r := content;
            Ok ()
        | Ok (p, D _) -> Error (Vfs.Is_a_directory p)
        | Ok (p, L _) -> Error (Vfs.Symlink_loop p)
        | Error (Vfs.Not_found _) ->
            let target = join (Vpath.dirname (normalize path)) t in
            let* tdir, tname = parent_dir fs target in
            Hashtbl.replace tdir tname (F (ref content));
            Ok ()
        | Error e -> Error e)
    | None ->
        Hashtbl.replace dir name (F (ref content));
        Ok ()

  let read_file fs path =
    fs.c.read <- fs.c.read + 1;
    match lookup_node fs ~follow_last:true path with
    | Ok (_, F r) -> Ok !r
    | Ok (p, D _) -> Error (Vfs.Is_a_directory p)
    | Ok (p, L _) -> Error (Vfs.Symlink_loop p)
    | Error e -> Error e

  let symlink fs ~target ~link =
    let* dir, name = parent_dir fs link in
    fs.c.link <- fs.c.link + 1;
    match Hashtbl.find_opt dir name with
    | Some _ -> Error (Vfs.Already_exists (normalize link))
    | None ->
        Hashtbl.replace dir name (L target);
        Ok ()

  let resolve fs path =
    Result.map (fun (p, _, _) -> p) (lookup fs ~follow_last:true ~hops:40 path)

  let kind_of fs path =
    match lookup_node fs ~follow_last:false path with
    | Ok (_, F _) -> Some Vfs.File
    | Ok (_, D _) -> Some Vfs.Dir
    | Ok (_, L _) -> Some Vfs.Symlink
    | Error _ -> None

  let is_file fs path =
    match lookup_node fs ~follow_last:true path with
    | Ok (_, F _) -> true
    | _ -> false

  let remove fs ~recursive path =
    let* dir, name = parent_dir ~create:false fs path in
    fs.c.unlink <- fs.c.unlink + 1;
    match Hashtbl.find_opt dir name with
    | None -> Error (Vfs.Not_found (normalize path))
    | Some (D d) when Hashtbl.length d > 0 && not recursive ->
        Error (Vfs.Already_exists (normalize path))
    | Some _ ->
        Hashtbl.remove dir name;
        Ok ()

  (* the directory tables at or below [d] *)
  let rec tables d =
    d
    :: Hashtbl.fold
         (fun _ n acc -> match n with D c -> tables c @ acc | F _ | L _ -> acc)
         d []

  let rename fs ~src ~dst =
    fs.barriers <- fs.barriers + 1;
    let* sdir, sname = parent_dir ~create:false fs src in
    match Hashtbl.find_opt sdir sname with
    | None -> Error (Vfs.Not_found (normalize src))
    | Some node ->
        let* () =
          match node with
          | D d -> (
              match parent_dir ~stop:true fs dst with
              | Ok (target, _) when List.memq target (tables d) ->
                  Error
                    (Vfs.Into_own_subtree
                       { src = normalize src; dst = normalize dst })
              | Ok _ | Error _ -> Ok ())
          | F _ | L _ -> Ok ()
        in
        let* ddir, dname = parent_dir fs dst in
        let* () =
          match (Hashtbl.find_opt ddir dname, node) with
          | None, _ -> Ok ()
          | Some (D d), D s when s == d -> Ok ()
          | Some (D d), D _ when Hashtbl.length d = 0 -> Ok ()
          | Some (D _), _ -> Error (Vfs.Is_a_directory (normalize dst))
          | Some _, D _ -> Error (Vfs.Not_a_directory (normalize dst))
          | Some _, _ -> Ok ()
        in
        fs.c.write <- fs.c.write + 1;
        fs.c.unlink <- fs.c.unlink + 1;
        Hashtbl.remove sdir sname;
        Hashtbl.replace ddir dname node;
        Ok ()

  let walk fs path =
    let rec go acc dir_path d =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.fold_left
           (fun acc (name, node) ->
             let here = join dir_path name in
             match node with
             | F _ -> (here, Vfs.File) :: acc
             | L _ -> (here, Vfs.Symlink) :: acc
             | D d' -> go ((here, Vfs.Dir) :: acc) here d')
           acc
    in
    match lookup_node fs ~follow_last:true path with
    | Ok (p, D d) -> List.rev (go [] p d)
    | _ -> []
end

(* paths over a small alphabet, with ".", "..", empty components ("//")
   and an optional trailing '/'; "l" and "m" are usually symlinks *)
let gen_path ~absolute =
  QCheck.Gen.(
    map2
      (fun parts trailing ->
        (if absolute then "/" else "")
        ^ String.concat "/" parts
        ^ if trailing then "/" else "")
      (list_size (int_range 1 4)
         (frequency
            [
              (4, oneofl [ "a"; "b" ]);
              (3, oneofl [ "l"; "m" ]);
              (1, oneofl [ "."; ".."; "" ]);
            ]))
      (frequency [ (4, return false); (1, return true) ]))

let arb_vpath =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(bool >>= fun absolute -> gen_path ~absolute)

let normalize_props =
  QCheck.Test.make ~name:"normalize: idempotent, canonical input unchanged"
    ~count:1000 arb_vpath (fun p ->
      let n = Vpath.normalize p in
      n = Ref.normalize p
      && Vpath.is_canonical n
      && Vpath.normalize n == n
      && Vpath.is_canonical p = (n = p)
      && List.for_all
           (fun c -> Vpath.extend n c = Vpath.join n c)
           (Vpath.split n))

type op =
  | Mkdir of string
  | Write of string * string
  | Symlink of string * string  (** target, link *)
  | Read of string
  | Resolve of string
  | Walk of string
  | Remove of string * bool  (** path, recursive *)
  | Rename of string * string  (** src, dst *)
  | Kind_of of string
  | Is_file of string

let show_op = function
  | Mkdir p -> Printf.sprintf "mkdir %S" p
  | Write (p, c) -> Printf.sprintf "write %S %S" p c
  | Symlink (t, l) -> Printf.sprintf "symlink %S -> %S" l t
  | Read p -> Printf.sprintf "read %S" p
  | Resolve p -> Printf.sprintf "resolve %S" p
  | Walk p -> Printf.sprintf "walk %S" p
  | Remove (p, recursive) ->
      Printf.sprintf "remove%s %S" (if recursive then " -r" else "") p
  | Rename (s, d) -> Printf.sprintf "rename %S -> %S" s d
  | Kind_of p -> Printf.sprintf "kind_of %S" p
  | Is_file p -> Printf.sprintf "is_file %S" p

let arb_script =
  let open QCheck.Gen in
  let path = gen_path ~absolute:true in
  let op =
    frequency
      [
        (2, map (fun p -> Mkdir p) path);
        (3, map2 (fun p c -> Write (p, c)) path (oneofl [ "x"; "y" ]));
        ( 2,
          map2
            (fun t l -> Symlink (t, l))
            (bool >>= fun absolute -> gen_path ~absolute)
            path );
        (3, map (fun p -> Read p) path);
        (1, map (fun p -> Resolve p) path);
        (1, map (fun p -> Walk p) path);
        (2, map2 (fun p r -> Remove (p, r)) path bool);
        (2, map2 (fun s d -> Rename (s, d)) path path);
        (* a node renamed onto itself *)
        (1, map (fun s -> Rename (s, s)) path);
        (* a destination inside the source's own subtree *)
        ( 1,
          map2
            (fun s rest -> Rename (s, s ^ "/" ^ rest))
            path (gen_path ~absolute:false) );
        (1, map (fun p -> Kind_of p) path);
        (1, map (fun p -> Is_file p) path);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 30) op)

type outcome =
  | Unit of (unit, Vfs.error) result
  | Text of (string, Vfs.error) result
  | Walked of (string * Vfs.kind) list
  | Kind of Vfs.kind option
  | Flag of bool

let walk_matches_reference =
  QCheck.Test.make ~name:"path walks = reference (results, errors, counters)"
    ~count:500 arb_script (fun ops ->
      let fs = Vfs.create () and r = Ref.create () in
      List.for_all
        (fun op ->
          let got, want =
            match op with
            | Mkdir p -> (Unit (Vfs.mkdir_p fs p), Unit (Ref.mkdir_p r p))
            | Write (p, c) ->
                (Unit (Vfs.write_file fs p c), Unit (Ref.write_file r p c))
            | Symlink (target, link) ->
                ( Unit (Vfs.symlink fs ~target ~link),
                  Unit (Ref.symlink r ~target ~link) )
            | Read p -> (Text (Vfs.read_file fs p), Text (Ref.read_file r p))
            | Resolve p -> (Text (Vfs.resolve fs p), Text (Ref.resolve r p))
            | Walk p -> (Walked (Vfs.walk fs p), Walked (Ref.walk r p))
            | Remove (p, recursive) ->
                ( Unit (Vfs.remove fs ~recursive p),
                  Unit (Ref.remove r ~recursive p) )
            | Rename (src, dst) ->
                (Unit (Vfs.rename fs ~src ~dst), Unit (Ref.rename r ~src ~dst))
            | Kind_of p -> (Kind (Vfs.kind_of fs p), Kind (Ref.kind_of r p))
            | Is_file p -> (Flag (Vfs.is_file fs p), Flag (Ref.is_file r p))
          in
          got = want
          && Vfs.counters fs = r.Ref.c
          && Vfs.write_barriers fs = r.Ref.barriers)
        ops)

let () =
  Alcotest.run "vfs"
    [
      ( "vpath",
        [
          Alcotest.test_case "path algebra" `Quick vpath_cases;
          QCheck_alcotest.to_alcotest normalize_props;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "file round-trip" `Quick file_roundtrip;
          Alcotest.test_case "errors" `Quick error_cases;
          Alcotest.test_case "symlinks" `Quick symlink_cases;
          Alcotest.test_case "symlink loops" `Quick symlink_loops;
          Alcotest.test_case "ls and walk" `Quick ls_and_walk;
          Alcotest.test_case "removal" `Quick removal;
          Alcotest.test_case "rename" `Quick rename_cases;
          Alcotest.test_case "operation counters" `Quick counters;
          Alcotest.test_case "fault: barrier counting" `Quick
            fault_barrier_counting;
          Alcotest.test_case "fault: transient failures" `Quick fault_fail_op;
          Alcotest.test_case "fault: crash mode" `Quick fault_crash_mode;
          Alcotest.test_case "crash sweep protocol" `Quick crash_sweep_protocol;
          Alcotest.test_case "snapshot renders a tree" `Quick
            snapshot_renders_tree;
          QCheck_alcotest.to_alcotest write_read_consistent;
          QCheck_alcotest.to_alcotest walk_matches_reference;
        ] );
    ]
