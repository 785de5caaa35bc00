(** LegUp-substitute operation scheduler (thesis §3.1.2/§5.4).

    Produces per-basic-block resource-constrained list schedules — the
    states of the FSM LegUp would generate — with combinational chaining
    of cheap operations (up to {!max_chain_depth} logic levels per state)
    and, for single-block innermost loops, an iterative-modulo-scheduling
    initiation interval bounded by resource usage (the serial divider is
    busy for its full latency) and loop-carried recurrences (scalar chains
    through phis and same-cell memory updates).

    The runtime simulator replays these schedules for hardware-thread
    timing; {!Twill_hls.Area} derives functional-unit counts from the same
    schedule; {!Twill_vgen.Vemit} emits the corresponding RTL. *)

open Twill_ir.Ir

(** Functional units available to one hardware thread.  [queue] is the
    runtime-interface call slot: one call per cycle (§4.4). *)
type resources = {
  alu : int;
  mul : int;
  div : int;
  shift : int;
  mem : int;  (** memory-bus ports *)
  queue : int;
}

val default_resources : resources

(** RTL lowering the schedule feeds.  [Fsm] is the LegUp-style monolithic
    FSM-with-datapath (resource-constrained list schedule); [Dataflow] is
    the elastic template — one latency-insensitive stage per basic block
    with valid/ready channels between stages — whose stages bind their own
    functional units, so placement is resource-free ASAP and the II is
    bounded only by recurrences and the module-shared memory/call slots. *)
type backend = Fsm | Dataflow

val backend_name : backend -> string
val all_backends : backend list

val backend_of_string : string -> (backend, string) result
(** [Error] carries a message listing the valid spellings. *)

(** Resource class of an operation. *)
type res_class = Calu | Cmul | Cdiv | Cshift | Cmem | Cqueue | Cfree

val class_of_kind : kind -> res_class
val units : resources -> res_class -> int
val latency_of_kind : kind -> int

val chainable : kind -> bool
(** Cheap combinational operations that may share a state. *)

val max_chain_depth : int

(** Ordering domains for side-effecting operations: memory operations
    serialise against memory operations, runtime-interface calls against
    runtime-interface calls, calls against both. *)
type order_chain = Omem | Oqueue | Oboth | Onone

val order_chain_of : kind -> order_chain

(** Memory banking: one ordering chain and one set of [res.mem] ports
    per bank instead of a single module-wide memory domain.
    [bank_of_id] is the static bank of each access
    ({!Twill_ir.Memdep.bank_table}): [Some b] chains only against bank
    [b]; [None] joins every bank's chain and occupies a port in every
    bank.  With [nbanks = 1] schedules are identical to unbanked. *)
type banking = { nbanks : int; bank_of_id : int -> int option }

val no_banking : banking

type t = {
  nstates : int array;  (** per block: FSM states (>= 1) *)
  start_state : (int, int) Hashtbl.t;  (** instruction id -> start state *)
  start_arr : int array;
      (** instruction id -> start state, [-1] if unscheduled; array twin
          of [start_state] for the simulator's per-memory-op hot path *)
  ii : int array;  (** per block: initiation interval; 0 = not pipelined *)
  peak : (res_class * int) list;  (** peak concurrency, for binding *)
  total_states : int;
}

val schedule :
  ?res:resources -> ?modulo:bool -> ?backend:backend -> ?banking:banking ->
  func -> t

val cached :
  ?res:resources -> ?modulo:bool -> ?backend:backend -> ?banking:banking ->
  func -> t
(** Like {!schedule}, but memoized across calls in a process-wide,
    mutex-guarded cache keyed by function *identity* (physical equality)
    and the scheduling configuration.  Entries are held through
    ephemerons: one lives only as long as its function is reachable
    elsewhere, so the cache never keeps a dead module alive.  Safe
    because transforms produce fresh [func] values rather than reusing
    scheduled instances; callers must only schedule functions that are
    done being mutated.  Banking
    is keyed by its bank count alone — the bank map is a pure function
    of the module and the count, and the physical key pins the module
    version.  Used by the runtime simulator, the area accounting and the
    driver so one function is scheduled once per configuration instead
    of once per consumer. *)

val clear_cache : unit -> unit
(** Drops every memoized schedule (tests / long-running sweeps). *)
