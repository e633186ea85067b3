(* The greedy concretizer's observable outputs, printed for the goldens
   [greedy_traces.expected] and [greedy_failures.expected]:

     greedy_golden.exe traces    every universe query of the spec-stream
                                 population (each package plain, %gcc,
                                 %intel and @newest): its answer's root
                                 hash or its error, then its decision
                                 trace as key=chosen/alternatives
     greedy_golden.exe failures  a battery of failing queries through
                                 [Ospack.spec] on both backends: the
                                 No_version nearest-miss rendering with
                                 each of its provenance sources, and the
                                 blocked path or unsat core, each as the
                                 memoized and the --fresh path render it

   Regenerate a golden only when a change to what the greedy decides or
   renders is intended: [dune runtest; dune promote]. *)

module Repository = Ospack_package.Repository
module Package = Ospack_package.Package
module Concretizer = Ospack_concretize.Concretizer
module Backends = Ospack_concretize.Backends
module Cerror = Ospack_concretize.Cerror
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Version = Ospack_version.Version
module Universe = Ospack_repo.Universe
module Context = Ospack.Context

let newest pkg =
  match Package.known_versions pkg with
  | [] -> None
  | v :: vs ->
      Some
        (List.fold_left (fun a b -> if Version.compare b a > 0 then b else a) v vs)

let traces () =
  let ctx =
    Concretizer.make_ctx ~config:Universe.default_config
      ~compilers:Universe.compilers (Universe.repository ())
  in
  List.iter
    (fun pkg ->
      let n = pkg.Package.p_name in
      let queries =
        [ n; n ^ " %gcc"; n ^ " %intel" ]
        @
        match newest pkg with
        | Some v -> [ n ^ "@" ^ Version.to_string v ]
        | None -> []
      in
      List.iter
        (fun q ->
          let result, trace =
            Concretizer.run_trace ctx [] (Parser.parse_exn q)
          in
          let answer =
            match result with
            | Ok c -> "ok " ^ Concrete.root_hash c
            | Error e -> "error " ^ Cerror.to_string e
          in
          let decisions =
            List.map
              (fun (d : Concretizer.decision) ->
                Printf.sprintf " %s=%s/%d" d.Concretizer.d_key
                  d.Concretizer.d_chosen d.Concretizer.d_alternatives)
              trace
          in
          print_endline (q ^ " | " ^ answer ^ " |" ^ String.concat "" decisions))
        queries)
    (Repository.all_packages ctx.Concretizer.repo)

(* Every version of [leaf] is excluded by a range that still meets the
   others, so each source kind shows in a nearest-miss line: a recipe's
   depends_on, a deep constraint of another recipe, a provider's when
   condition, and the user spec. *)
let battery_repo () =
  let open Package in
  Repository.create ~name:"battery"
    [
      make_pkg "leaf"
        [ version "1.0"; version "1.2"; version "2.0"; version "3.0" ];
      make_pkg "mid"
        [ version "1.0"; version "2.0"; depends_on "leaf@1.5:" ];
      make_pkg "top" [ version "1.0"; depends_on "mid ^leaf@:1.9" ];
      make_pkg "prov"
        [
          version "1.0"; version "2.0"; version "3.0";
          provides "iface@2:" ~when_:"@2.5:2.9";
          provides "iface@:1" ~when_:"@:1.0";
        ];
      make_pkg "app" [ version "1.0"; depends_on "iface@2:" ];
      make_pkg "both"
        [ version "1.0"; depends_on "top"; depends_on "app" ];
    ]

let universe_failures =
  [
    "libelf@0.9:0.10";
    "ares ^netlib-blas@3.5.0.5:";
    "dtcmp ^mvapich2@2.0.5:";
    "leos ^zlib@1.2.8.5:";
    "ior ^hdf5@1.8.13.5:1.8.13";
    "callpath ^boost@1.49.0.5:1.49.0";
    "glm ^cmake@2.8.10.5:2.8.10";
    "mpileaks ^mpi+hwloc ^hwloc@1.9";
    "gerris ^mpich@1.4";
    "dyninst ^mpi@3:";
    "boost ^openmpi";
    "petsc ^hwloc@1.9";
  ]

let battery_failures =
  [
    "top";
    "top ^leaf@1:";
    "mid ^leaf@1.3:1.4";
    "mid ^leaf@1.1:1.9";
    "app";
    "app ^prov@1:";
    "both";
    "both ^leaf@1.1:1.9";
  ]

let failures () =
  List.iter
    (fun backend ->
      List.iter
        (fun (ctx, queries) ->
          List.iter
            (fun q ->
              Printf.printf "== %s: spec %s\n" (Backends.to_string backend) q;
              let render r =
                match r with
                | Ok c -> "ok " ^ Concrete.root_hash c
                | Error text -> text
              in
              let memoized = render (Ospack.spec ctx q) in
              print_endline memoized;
              (* a --fresh solve renders the same, and shows only where
                 it does not *)
              let fresh = render (Ospack.spec ~fresh:true ctx q) in
              if fresh <> memoized then print_endline ("--fresh: " ^ fresh))
            queries)
        [
          (Context.create ~backend (), universe_failures);
          ( Context.create ~backend ~repo:(battery_repo ())
              ~config:Ospack_config.Config.empty (),
            battery_failures );
        ])
    Backends.all

let () =
  match Sys.argv with
  | [| _; "traces" |] -> traces ()
  | [| _; "failures" |] -> failures ()
  | _ -> prerr_endline "usage: greedy_golden.exe traces|failures"; exit 2
