open Ospack_package.Package

(* The Fig. 13 DAG. Node census for the full production configuration:
   ares + 13 physics + 8 utility + 4 math (samrai, hypre, gsl, lapack) +
   21 external (incl. one mpi provider and one blas provider) = 47. *)

let leaf name ~descr versions =
  make_pkg name ~description:descr (List.map (fun v -> version v) versions)

(* --- LLNL physics packages --- *)

let matprop =
  make_pkg "matprop"
    ~description:"Material properties database interface (LLNL physics)."
    [ version "4.2"; version "4.1"; depends_on "sgeos-xml" ]

let overlink =
  leaf "overlink" ~descr:"Overlink mesh remapping (LLNL physics)."
    [ "3.1"; "3.0" ]

let qd =
  leaf "qd" ~descr:"Quad-double precision arithmetic (LLNL physics)."
    [ "2.3.13" ]

let leos =
  make_pkg "leos"
    ~description:"Livermore equation-of-state library (LLNL physics)."
    [ version "8.1"; version "8.0"; depends_on "hdf5" ]

let mslib =
  leaf "mslib" ~descr:"Material strength library (LLNL physics)." [ "3.5" ]

let laser =
  leaf "laser" ~descr:"Laser ray-trace package (LLNL physics)." [ "2.0" ]

let cretin =
  make_pkg "cretin"
    ~description:"Atomic kinetics and radiation package (LLNL physics)."
    [ version "2.1"; depends_on "mslib" ]

let tdf = leaf "tdf" ~descr:"Tabular data format library (LLNL physics)." [ "1.7" ]

let cheetah =
  make_pkg "cheetah"
    ~description:"Thermochemical equilibrium package (LLNL physics)."
    [ version "6.0"; depends_on "dsd" ]

let dsd =
  leaf "dsd" ~descr:"Detonation shock dynamics package (LLNL physics)."
    [ "2.2" ]

let teton =
  make_pkg "teton"
    ~description:"Deterministic radiation transport (LLNL physics)."
    [ version "4.0"; depends_on "mpi" ]

let nuclear =
  leaf "nuclear" ~descr:"Nuclear reaction data package (LLNL physics)." [ "1.9" ]

let asclaser =
  make_pkg "asclaser"
    ~description:"ASC laser deposition package (LLNL physics)."
    [ version "1.3"; depends_on "laser" ]

(* --- LLNL utility packages --- *)

let opclient =
  leaf "opclient" ~descr:"Opacity-server client library (LLNL utility)."
    [ "2.5" ]

let bdivxml =
  leaf "bdivxml" ~descr:"B-division XML utilities (LLNL utility)." [ "1.2" ]

let sgeos_xml =
  leaf "sgeos-xml" ~descr:"Sesame/GEOS XML reader (LLNL utility)." [ "2.0" ]

let scallop =
  make_pkg "scallop"
    ~description:"Scalable I/O aggregation library (LLNL utility)."
    [ version "1.1"; depends_on "boost" ]

let rng = leaf "rng" ~descr:"Reproducible random streams (LLNL utility)." [ "1.0" ]

let perflib =
  make_pkg "perflib"
    ~description:"Lightweight performance annotations (LLNL utility)."
    [ version "2.0"; depends_on "papi" ]

let memusage =
  leaf "memusage" ~descr:"Memory high-water tracking (LLNL utility)." [ "1.4" ]

let timers = leaf "timers" ~descr:"Hierarchical timers (LLNL utility)." [ "1.1" ]

(* --- ARES itself --- *)

let version_of_config = function
  | `Current -> "2015.03"
  | `Previous -> "2014.11"
  | `Lite -> "2015.03"
  | `Dev -> "2015.06"

let spec_of_config config =
  match config with
  | `Lite -> "ares@" ^ version_of_config `Lite ^ " +lite"
  | c -> "ares@" ^ version_of_config c

let ares =
  let always = [ "matprop"; "overlink"; "qd"; "leos"; "mslib"; "tdf";
                 "cheetah"; "dsd";
                 "opclient"; "bdivxml"; "sgeos-xml"; "scallop"; "rng";
                 "perflib"; "memusage"; "timers";
                 "silo"; "hypre"; "gsl"; "ga"; "gperftools"; "hdf5";
                 "boost"; "cmake"; "mpi" ]
  in
  (* the laser/radiation physics stack and the Python tool chain are
     dropped by the "lite" configuration (§4.4) *)
  let full_only =
    [ "laser"; "cretin"; "asclaser"; "teton"; "nuclear";
      "python"; "py-numpy"; "py-scipy"; "tcl"; "tk"; "hpdf" ]
  in
  make_pkg "ares"
    ~description:"1-3D radiation hydrodynamics code for munitions \
                  modeling and ICF simulation (LLNL production code)."
    ([
       version "2015.06";  (* development *)
       version "2015.03" ~preferred:true;  (* current production *)
       version "2014.11";  (* previous production *)
       variant "lite" ~descr:"Reduced feature/dependency configuration";
     ]
    @ List.map (fun d -> depends_on d) always
    @ List.map (fun d -> depends_on d ~when_:"~lite") full_only
    @ [
        (* configurations pin different dependency versions (§4.4) *)
        depends_on "samrai@3.8:" ~when_:"@2015:";
        depends_on "samrai@:3.7" ~when_:"@:2014";
        depends_on "hdf5@1.8.13" ~when_:"@2015.05:";
        depends_on "boost@1.54:" ~when_:"@2015:";
        depends_on "boost@:1.54" ~when_:"@:2014";
      ])

let packages =
  [
    ares; matprop; overlink; qd; leos; mslib; laser; cretin; tdf; cheetah;
    dsd; teton; nuclear; asclaser; opclient; bdivxml; sgeos_xml; scallop;
    rng; perflib; memusage; timers;
  ]
