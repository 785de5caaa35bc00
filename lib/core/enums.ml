(* One authoritative table per user-facing enum.

   The backend / rtsim-engine / vsim-engine spellings used to be parsed
   in three independent places (the cmdliner enums in bin/twillc.ml,
   Grid.parse in lib/dse, the request decoders in lib/serve) — adding a
   value meant touching all of them and hoping the spellings stayed in
   sync.  Every table here derives from the type's canonical [*_name]
   printer, so a spelling can only exist once, and every parser rejects
   unknown values with the full valid list. *)

module Schedule = Twill_hls.Schedule
module Sim = Twill_rtsim.Sim
module Vsim = Twill_vsim.Vsim

let of_assoc (type a) ~(what : string) (assoc : (string * a) list) (s : string)
    : (a, string) result =
  match List.assoc_opt s assoc with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (valid: %s)" what s
           (String.concat ", " (List.map fst assoc)))

(* RTL lowering for the hardware partitions. *)
let backends : (string * Schedule.backend) list =
  List.map (fun b -> (Schedule.backend_name b, b)) Schedule.all_backends

let backend_of_string = of_assoc ~what:"backend" backends

(* Runtime-simulator execution engine. *)
let sim_engines : (string * Sim.engine) list =
  List.map (fun e -> (Sim.engine_name e, e)) [ Sim.Compiled; Sim.Interpreted ]

let sim_engine_of_string = of_assoc ~what:"engine" sim_engines

(* Verilog-simulator scheduling engine. *)
let vsim_engines : (string * Vsim.engine) list =
  List.map
    (fun e -> (Vsim.engine_name e, e))
    [ Vsim.Compiled; Vsim.Fixpoint ]

let vsim_engine_of_string = of_assoc ~what:"vsim engine" vsim_engines
