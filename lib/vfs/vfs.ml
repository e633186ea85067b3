type kind = File | Dir | Symlink

type node =
  | Nfile of string ref
  | Ndir of (string, node) Hashtbl.t
  | Nlink of string

type error =
  | Not_found of string
  | Not_a_directory of string
  | Is_a_directory of string
  | Already_exists of string
  | Symlink_loop of string
  | Not_a_symlink of string
  | Fault_injected of { fi_op : string; fi_path : string }
  | Into_own_subtree of { src : string; dst : string }

let error_to_string = function
  | Not_found p -> Printf.sprintf "no such file or directory: %s" p
  | Not_a_directory p -> Printf.sprintf "not a directory: %s" p
  | Is_a_directory p -> Printf.sprintf "is a directory: %s" p
  | Already_exists p -> Printf.sprintf "file exists: %s" p
  | Symlink_loop p -> Printf.sprintf "too many levels of symbolic links: %s" p
  | Not_a_symlink p -> Printf.sprintf "not a symbolic link: %s" p
  | Fault_injected { fi_op; fi_path } ->
      Printf.sprintf "fault injected: %s %s" fi_op fi_path
  | Into_own_subtree { src; dst } ->
      Printf.sprintf "cannot move directory %s into its own subtree: %s" src
        dst

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

type counters = {
  mutable stat : int;
  mutable read : int;
  mutable write : int;
  mutable mkdir : int;
  mutable link : int;
  mutable unlink : int;
  mutable readdir : int;
}

type fault_mode = Fail_op | Crash

type fault_plan = {
  fp_mode : fault_mode;
  fp_at : int list;
  fp_on_barrier : unit -> unit;
  mutable fp_crashed : bool;
}

type t = {
  root : (string, node) Hashtbl.t;
  c : counters;
  mutable barriers : int;
  mutable plan : fault_plan option;
}

let create () =
  {
    root = Hashtbl.create 16;
    c =
      { stat = 0; read = 0; write = 0; mkdir = 0; link = 0; unlink = 0;
        readdir = 0 };
    barriers = 0;
    plan = None;
  }

let counters fs = fs.c

let write_barriers fs = fs.barriers

let set_fault_plan fs ?(mode = Fail_op) ?(on_barrier = fun () -> ()) at =
  fs.barriers <- 0;
  fs.plan <-
    Some { fp_mode = mode; fp_at = at; fp_on_barrier = on_barrier;
           fp_crashed = false }

let clear_fault_plan fs = fs.plan <- None

(* A write barrier: the durability boundary before a write_file or rename
   mutates anything. The counter ticks on every barrier regardless of plan;
   with a plan armed, a planned barrier fails the op (before mutation), and
   in Crash mode every mutating op after the kill point fails too — the
   process is "dead", nothing further reaches the disk. *)
let barrier fs ~op ~path =
  fs.barriers <- fs.barriers + 1;
  match fs.plan with
  | None -> Ok ()
  | Some p ->
      p.fp_on_barrier ();
      if p.fp_crashed || List.mem fs.barriers p.fp_at then begin
        if p.fp_mode = Crash then p.fp_crashed <- true;
        Error (Fault_injected { fi_op = op; fi_path = Vpath.normalize path })
      end
      else Ok ()

let check_crashed fs ~op ~path =
  match fs.plan with
  | Some p when p.fp_crashed ->
      Error (Fault_injected { fi_op = op; fi_path = Vpath.normalize path })
  | _ -> Ok ()

let reset_counters fs =
  let c = fs.c in
  c.stat <- 0;
  c.read <- 0;
  c.write <- 0;
  c.mkdir <- 0;
  c.link <- 0;
  c.unlink <- 0;
  c.readdir <- 0

let max_hops = 40

let ( let* ) = Result.bind

(* The end of the component starting at [i] of a normalized path. *)
let component_end p i =
  match String.index_from_opt p i '/' with
  | Some j -> j
  | None -> String.length p

(* Walk a path down from the root, following symlinks (including one at
   the final component when [follow_last]). The normalized path is walked
   in place, each component sliced once, and a walk that crosses a
   symlink restarts on the normalized target path, so the path a walk
   ends on is canonical: it is returned with the node, and slices of it
   name errors. [hops] bounds total symlink traversals across the whole
   resolution. *)
let rec lookup fs ~follow_last ~hops path =
  let p = Vpath.normalize path in
  let n = String.length p in
  (* [dir] is visited, and the component at [i] is looked up in it *)
  let rec step dir i =
    fs.c.stat <- fs.c.stat + 1;
    if i >= n then Ok (p, Ndir dir, hops)
    else
      let j = component_end p i in
      match Hashtbl.find_opt dir (String.sub p i (j - i)) with
      | None -> Error (Not_found (String.sub p 0 j))
      | Some (Ndir d) -> step d (j + 1)
      | Some (Nfile _ as node) when j = n -> Ok (p, node, hops)
      | Some (Nfile _) -> Error (Not_a_directory (String.sub p 0 j))
      | Some (Nlink target as node) ->
          if j = n && not follow_last then Ok (p, node, hops)
          else if hops <= 0 then Error (Symlink_loop (String.sub p 0 j))
          else
            let resolved_target =
              Vpath.join (if i = 1 then "/" else String.sub p 0 (i - 1)) target
            in
            let full =
              if j = n then resolved_target
              else
                Vpath.normalize
                  (resolved_target ^ "/" ^ String.sub p (j + 1) (n - j - 1))
            in
            lookup fs ~follow_last ~hops:(hops - 1) full
  in
  step fs.root 1

let lookup_node fs ~follow_last path =
  match lookup fs ~follow_last ~hops:max_hops path with
  | Ok (p, n, _) -> Ok (p, n)
  | Error e -> Error e

(* What a parent walk does at a missing component: create it, fail with
   [Not_found], or stop there, returning the directory it reached and
   the missing component (where [Create] would begin creating). *)
type missing = Create | Fail | Stop

(* Find (or create) the parent directory table of a path; returns the
   parent table and the final component name. *)
let parent_dir fs ~missing path =
  let p = Vpath.normalize path in
  let n = String.length p in
  if n = 1 then Error (Is_a_directory "/")
  else
    let last = String.rindex p '/' in
    let name = String.sub p (last + 1) (n - last - 1) in
    (* the component at [i] is looked up in [dir] *)
    let rec descend dir i =
      if i > last then Ok (dir, name)
      else begin
        fs.c.stat <- fs.c.stat + 1;
        let j = component_end p i in
        let c = String.sub p i (j - i) in
        match Hashtbl.find_opt dir c with
        | Some (Ndir d) -> descend d (j + 1)
        | Some (Nlink _) -> (
            (* resolve the link, then continue from there *)
            let here = String.sub p 0 j in
            match lookup_node fs ~follow_last:true here with
            | Ok (_, Ndir d) -> descend d (j + 1)
            | Ok _ -> Error (Not_a_directory here)
            | Error e -> Error e)
        | Some (Nfile _) -> Error (Not_a_directory (String.sub p 0 j))
        | None -> (
            match missing with
            | Create ->
                fs.c.mkdir <- fs.c.mkdir + 1;
                let d = Hashtbl.create 8 in
                Hashtbl.replace dir c (Ndir d);
                descend d (j + 1)
            | Fail -> Error (Not_found (String.sub p 0 j))
            | Stop -> Ok (dir, c))
      end
    in
    descend fs.root 1

let mkdir_p fs path =
  let* () = check_crashed fs ~op:"mkdir" ~path in
  if Vpath.normalize path = "/" then Ok ()
  else
    let* dir, name = parent_dir fs ~missing:Create path in
    match Hashtbl.find_opt dir name with
    | Some (Ndir _) -> Ok ()
    | Some _ -> Error (Not_a_directory (Vpath.normalize path))
    | None ->
        fs.c.mkdir <- fs.c.mkdir + 1;
        Hashtbl.replace dir name (Ndir (Hashtbl.create 8));
        Ok ()

let write_file fs path content =
  let* () = barrier fs ~op:"write" ~path in
  let* dir, name = parent_dir fs ~missing:Create path in
  fs.c.write <- fs.c.write + 1;
  match Hashtbl.find_opt dir name with
  | Some (Ndir _) -> Error (Is_a_directory (Vpath.normalize path))
  | Some (Nfile r) ->
      r := content;
      Ok ()
  | Some (Nlink _) -> (
      match lookup_node fs ~follow_last:true path with
      | Ok (_, Nfile r) ->
          r := content;
          Ok ()
      | Ok (p, Ndir _) -> Error (Is_a_directory p)
      | Ok (p, Nlink _) -> Error (Symlink_loop p)
      | Error (Not_found _) ->
          (* dangling link: write creates the target *)
          let* target =
            match Hashtbl.find_opt dir name with
            | Some (Nlink t) -> Ok (Vpath.join (Vpath.dirname (Vpath.normalize path)) t)
            | _ -> Error (Not_found path)
          in
          let* tdir, tname = parent_dir fs ~missing:Create target in
          Hashtbl.replace tdir tname (Nfile (ref content));
          Ok ()
      | Error e -> Error e)
  | None ->
      Hashtbl.replace dir name (Nfile (ref content));
      Ok ()

let read_file fs path =
  fs.c.read <- fs.c.read + 1;
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Nfile r) -> Ok !r
  | Ok (p, Ndir _) -> Error (Is_a_directory p)
  | Ok (p, Nlink _) -> Error (Symlink_loop p)
  | Error e -> Error e

let symlink fs ~target ~link =
  let* () = check_crashed fs ~op:"symlink" ~path:link in
  let* dir, name = parent_dir fs ~missing:Create link in
  fs.c.link <- fs.c.link + 1;
  match Hashtbl.find_opt dir name with
  | Some _ -> Error (Already_exists (Vpath.normalize link))
  | None ->
      Hashtbl.replace dir name (Nlink target);
      Ok ()

let readlink fs path =
  match lookup_node fs ~follow_last:false path with
  | Ok (_, Nlink target) -> Ok target
  | Ok (p, _) -> Error (Not_a_symlink p)
  | Error e -> Error e

let resolve fs path =
  match lookup fs ~follow_last:true ~hops:max_hops path with
  | Ok (p, _, _) -> Ok p
  | Error e -> Error e

let kind_of fs path =
  match lookup_node fs ~follow_last:false path with
  | Ok (_, Nfile _) -> Some File
  | Ok (_, Ndir _) -> Some Dir
  | Ok (_, Nlink _) -> Some Symlink
  | Error _ -> None

let exists fs path = Result.is_ok (resolve fs path)

let is_dir fs path =
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Ndir _) -> true
  | _ -> false

let is_file fs path =
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Nfile _) -> true
  | _ -> false

let ls fs path =
  fs.c.readdir <- fs.c.readdir + 1;
  match lookup_node fs ~follow_last:true path with
  | Ok (_, Ndir d) ->
      Ok (Hashtbl.fold (fun k _ acc -> k :: acc) d [] |> List.sort compare)
  | Ok (p, _) -> Error (Not_a_directory p)
  | Error e -> Error e

(* Every node strictly under a directory, depth-first in name order,
   rendered by [f] from its path; empty when the path is not a directory. *)
let collect fs path f =
  let rec go acc dir_path d =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.fold_left
         (fun acc (name, node) ->
           let here = Vpath.extend dir_path name in
           let acc = f here node :: acc in
           match node with Ndir d' -> go acc here d' | _ -> acc)
         acc
  in
  match lookup_node fs ~follow_last:true path with
  | Ok (p, Ndir d) -> List.rev (go [] p d)
  | _ -> []

let walk fs path =
  collect fs path (fun here -> function
    | Nfile _ -> (here, File)
    | Nlink _ -> (here, Symlink)
    | Ndir _ -> (here, Dir))

let snapshot fs path =
  collect fs path (fun here -> function
    | Nfile r -> here ^ " F " ^ !r
    | Nlink target -> here ^ " L " ^ target
    | Ndir _ -> here ^ " D")

(* Does directory [d]'s subtree, [d] included, hold the table [t]? *)
let rec holds d t =
  d == t
  || Seq.exists
       (function Ndir c -> holds c t | Nfile _ | Nlink _ -> false)
       (Hashtbl.to_seq_values d)

(* Would [dst]'s parent lie in directory [d]'s subtree? The walk stops at
   [dst]'s first missing component, so asking creates nothing. *)
let moves_into fs d dst =
  match parent_dir fs ~missing:Stop dst with
  | Ok (ddir, _) -> holds d ddir
  | Error _ -> false

let rename fs ~src ~dst =
  let* () = barrier fs ~op:"rename" ~path:dst in
  let* sdir, sname = parent_dir fs ~missing:Fail src in
  match Hashtbl.find_opt sdir sname with
  | None -> Error (Not_found (Vpath.normalize src))
  | Some (Ndir d) when moves_into fs d dst ->
      (* POSIX refuses this with EINVAL *)
      Error
        (Into_own_subtree
           { src = Vpath.normalize src; dst = Vpath.normalize dst })
  | Some node ->
      let* ddir, dname = parent_dir fs ~missing:Create dst in
      let* () =
        match Hashtbl.find_opt ddir dname with
        | None -> Ok ()
        | Some (Ndir d) -> (
            match node with
            | Ndir s when s == d -> Ok () (* onto itself: POSIX does nothing *)
            | Ndir _ when Hashtbl.length d = 0 -> Ok ()
            | _ -> Error (Is_a_directory (Vpath.normalize dst)))
        | Some _ -> (
            match node with
            | Ndir _ -> Error (Not_a_directory (Vpath.normalize dst))
            | _ -> Ok ())
      in
      fs.c.write <- fs.c.write + 1;
      fs.c.unlink <- fs.c.unlink + 1;
      Hashtbl.remove sdir sname;
      Hashtbl.replace ddir dname node;
      Ok ()

let write_atomic fs path content =
  let tmp = path ^ ".tmp" in
  match write_file fs tmp content with
  | Error e -> Error ("write", tmp, e)
  | Ok () -> (
      match rename fs ~src:tmp ~dst:path with
      | Error e -> Error ("rename", path, e)
      | Ok () -> Ok ())

let remove fs ?(recursive = false) path =
  let* () = check_crashed fs ~op:"remove" ~path in
  let* dir, name = parent_dir fs ~missing:Fail path in
  fs.c.unlink <- fs.c.unlink + 1;
  match Hashtbl.find_opt dir name with
  | None -> Error (Not_found (Vpath.normalize path))
  | Some (Ndir d) when Hashtbl.length d > 0 && not recursive ->
      Error (Already_exists (Vpath.normalize path))
  | Some _ ->
      Hashtbl.remove dir name;
      Ok ()

type 'a sweep = { sw_barriers : int; sw_kills : 'a list }

(* The crash-sweep protocol: a count-only reference run, then for each
   selected barrier k a fresh world killed at k. Determinism makes the
   armed replay match the reference byte for byte up to the kill, so the
   crashed state is exactly "the reference run, dead at barrier k". *)
let crash_sweep ?(every = 1) ~world ~op ~check () =
  if every < 1 then Error "every must be >= 1"
  else
    let ref_fs, ref_world = world () in
    set_fault_plan ref_fs [];
    let reference = op ref_world in
    clear_fault_plan ref_fs;
    match reference with
    | Error e -> Error ("reference run failed: " ^ e)
    | Ok r ->
        let barriers = ref_fs.barriers in
        let check_at = check (ref_fs, ref_world, r) in
        let rec sweep k acc =
          if k > barriers then
            Ok { sw_barriers = barriers; sw_kills = List.rev acc }
          else
            let fs, w = world () in
            set_fault_plan fs ~mode:Crash [ k ];
            let killed = op w in
            clear_fault_plan fs;
            let checked =
              match killed with
              | Ok _ -> Error "the operation survived an armed crash plan"
              | Error _ -> check_at ~kill:k fs w
            in
            match checked with
            | Error e -> Error (Printf.sprintf "kill point %d: %s" k e)
            | Ok c -> sweep (k + every) (c :: acc)
        in
        sweep 1 []
