(* Twill — the end-to-end compiler + runtime driver (thesis Fig. 3.1 and
   Fig. 5.1): mini-C source -> IR -> standard optimisation pipeline ->
   DSWP thread extraction -> HW/SW split -> LegUp-substitute scheduling ->
   cycle-accurate simulation, plus the two baselines the thesis evaluates
   against (pure software on the Microblaze model, pure hardware through
   the LegUp-substitute flow). *)

module Ir = Twill_ir.Ir
module Interp = Twill_ir.Interp
module Minic = Twill_minic.Minic
module Pipeline = Twill_passes.Pipeline
module Partition = Twill_dswp.Partition
module Threadgen = Twill_dswp.Threadgen
module Dswp = Twill_dswp.Dswp
module Parexec = Twill_dswp.Parexec
module Schedule = Twill_hls.Schedule
module Area = Twill_hls.Area
module Power = Twill_hls.Power
module Sim = Twill_rtsim.Sim
module Comm = Twill_comm.Comm
module Vruntime = Twill_vgen.Vruntime
module Vcheck = Twill_vgen.Vcheck
module Vparse = Twill_vsim.Vparse
module Vsim = Twill_vsim.Vsim
module Cosim = Twill_vsim.Cosim
module Par = Par
module Enums = Enums

type options = {
  partition : Partition.config;
  queue_depth : int;
  queue_depth_override : int option;
  queue_latency : int;
  inline_aggressive : bool;
  inline_threshold : int;
  unroll : bool;
  resources : Schedule.resources;
  modulo : bool;
  bus_contention : bool;
  fuel : int;
  sim_engine : Sim.engine;
  backend : Schedule.backend;  (* RTL lowering for hardware partitions *)
  pipeline_break : string option;
  comm : Comm.config;  (* communication-pattern optimizer passes *)
  mem_banks : int;  (* shared-memory banks (Memdep.plan); 1 = unbanked *)
  check_memdep : bool;  (* runtime alias checker (debug) *)
}

let default_options =
  {
    partition = Partition.default_config;
    queue_depth = 8; (* the thesis runs everything with 8x32 queues *)
    queue_depth_override = None;
    queue_latency = 2;
    inline_aggressive = false;
    inline_threshold = 60;
    unroll = false;
    resources = Schedule.default_resources;
    modulo = true;
    bus_contention = true;
    fuel = 300_000_000;
    sim_engine = Sim.Compiled;
    backend = Schedule.Fsm;
    pipeline_break = None;
    comm = Comm.none; (* seed behaviour: every pass off *)
    mem_banks = 1;
    check_memdep = false;
  }

(* --- compilation -------------------------------------------------------- *)

let pipeline_options (opts : options) : Pipeline.options =
  {
    Pipeline.default with
    inline_aggressive = opts.inline_aggressive;
    inline_threshold = opts.inline_threshold;
    unroll = opts.unroll;
    break_pass = opts.pipeline_break;
  }

(* mini-C source -> optimised IR module. *)
let compile ?(opts = default_options) (src : string) : Ir.modul =
  let m = Minic.compile src in
  Pipeline.run ~opts:(pipeline_options opts) m;
  m

(* One instrumented interpreter run collecting per-block execution counts
   of [main] — the partitioner's weights are profile-guided, like running
   the thesis's flow on top of LLVM's profiling infrastructure. *)
let profile_blocks ?(opts = default_options) (m : Ir.modul) : int array =
  let main = Ir.find_func m "main" in
  let counts = Array.make (Twill_ir.Vec.length main.Ir.blocks) 0 in
  let term_cost (f : Ir.func) (b : Ir.block) =
    if f == main then counts.(b.Ir.bid) <- counts.(b.Ir.bid) + 1;
    0
  in
  (try
     ignore
       (Interp.run ~fuel:opts.fuel ~cost:Interp.zero_cost ~term_cost
          ~charge_cycles:true m)
   with Interp.Out_of_fuel | Interp.Trap _ -> ());
  counts

let sim_config (opts : options) : Sim.config =
  {
    Sim.queue_latency = opts.queue_latency;
    queue_depth_override = opts.queue_depth_override;
    resources = opts.resources;
    modulo = opts.modulo;
    backend = opts.backend;
    bus_contention = opts.bus_contention;
    fuel = opts.fuel;
    engine = opts.sim_engine;
    mem_banks = opts.mem_banks;
    check_memdep = opts.check_memdep;
  }

let thread_specs (t : Dswp.threaded) : Sim.thread_spec array =
  Array.mapi
    (fun s name ->
      {
        Sim.tname = name;
        trole =
          (match t.Dswp.roles.(s) with
          | Partition.Sw -> Sim.Sw
          | Partition.Hw -> Sim.Hw);
        local_memory = false;
      })
    t.Dswp.stages

(* Optimised module -> extracted threads, with the communication-pattern
   optimizer ([opts.comm]) applied on the way out: condition-channel
   LICM happens inside extraction itself, and when the "size"/"burst"
   passes need a profile, a seed simulation of the unoptimized pipeline
   collects the per-channel occupancy/stall/burst counters first.
   [?profile] lets callers that extract the same module repeatedly
   (width auto-tuning, sweeps) reuse one instrumented run instead of
   re-profiling per extraction; [?prep] additionally reuses the
   partition-independent analyses. *)
let extract_comm ?(opts = default_options) ?profile ?prep (m : Ir.modul) :
    Dswp.threaded * Comm.report =
  let licm_conds = opts.comm.Comm.licm in
  let t =
    match prep with
    | Some _ ->
        Dswp.run ~config:opts.partition ~queue_depth:opts.queue_depth
          ~licm_conds ?prep m
    | None ->
        let profile =
          match profile with Some p -> p | None -> profile_blocks ~opts m
        in
        Dswp.run ~config:opts.partition ~queue_depth:opts.queue_depth
          ~licm_conds ~profile m
  in
  let qprofile =
    if Comm.needs_profile opts.comm then
      try
        let stats =
          Sim.simulate ~config:(sim_config opts) ~master:t.Dswp.master
            t.Dswp.modul ~threads:(thread_specs t) ~queues:t.Dswp.queues
            ~nsems:t.Dswp.nsems ()
        in
        Some stats.Sim.queue_profiles
      with Sim.Deadlock _ | Sim.Out_of_fuel _ ->
        (* the profile-guided passes degrade gracefully without a seed
           profile; behaviour bugs still surface in the real run *)
        None
    else None
  in
  let report = Comm.apply ~config:opts.comm ?profile:qprofile t in
  (t, report)

let extract ?opts ?profile ?prep (m : Ir.modul) : Dswp.threaded =
  fst (extract_comm ?opts ?profile ?prep m)

(* --- the three evaluation scenarios -------------------------------------- *)

type scenario = {
  cycles : int;
  ret : int32;
  prints : int32 list;
  area : Area.t; (* FPGA logic of the deployed design (excl. Microblaze) *)
  power_mw : float;
  executed : int;
}

type twill_result = {
  scenario : scenario;
  threaded : Dswp.threaded;
  hw_threads_area : Area.t; (* LegUp-translated thread logic only *)
  runtime_area : Area.t; (* queues, semaphores, buses, interfaces *)
  n_hw_threads : int;
  nqueues : int;
  nsems : int;
  stats : Sim.stats;
}

let schedules_for (opts : options) (m : Ir.modul) : (string * Schedule.t) list =
  List.map
    (fun (f : Ir.func) ->
      ( f.Ir.name,
        Schedule.cached ~res:opts.resources ~modulo:opts.modulo
          ~backend:opts.backend f ))
    m.Ir.funcs

(* Pure software: the whole program on the Microblaze. *)
let run_pure_sw ?(opts = default_options) (m : Ir.modul) : scenario =
  let stats =
    Sim.simulate ~config:(sim_config opts) m
      ~threads:[| { Sim.tname = "main"; trole = Sim.Sw; local_memory = false } |]
      ~queues:[||] ~nsems:0 ()
  in
  {
    cycles = stats.Sim.cycles;
    ret = stats.Sim.ret;
    prints = stats.Sim.prints;
    area = Area.zero; (* no fabric logic; the soft core itself reported separately *)
    power_mw =
      Power.power ~with_microblaze:true ~mb_activity:1.0 ~area:Area.microblaze
        ~logic_activity:0.0 ();
    executed = stats.Sim.executed;
  }

(* Pure hardware: the whole program through the LegUp-substitute flow.
   This baseline is the monolithic LegUp translation by definition, so it
   stays on the FSM backend whatever [opts.backend] selects for the
   hybrid's partitions. *)
let run_pure_hw ?(opts = default_options) (m : Ir.modul) : scenario =
  let opts = { opts with backend = Schedule.Fsm } in
  let stats =
    Sim.simulate ~config:(sim_config opts) m
      ~threads:[| { Sim.tname = "main"; trole = Sim.Hw; local_memory = true } |]
      ~queues:[||] ~nsems:0 ()
  in
  let area = Area.of_legup_module m ~schedules:(schedules_for opts m) in
  let busy = match stats.Sim.thread_busy with [| (_, b) |] -> b | _ -> 0 in
  let activity =
    if stats.Sim.cycles = 0 then 0.0
    else float_of_int busy /. float_of_int stats.Sim.cycles
  in
  {
    cycles = stats.Sim.cycles;
    ret = stats.Sim.ret;
    prints = stats.Sim.prints;
    area;
    power_mw =
      Power.power ~with_microblaze:false ~mb_activity:0.0 ~area
        ~logic_activity:activity ();
    executed = stats.Sim.executed;
  }

(* Callees reachable from a set of root functions. *)
let reachable_funcs (m : Ir.modul) (roots : string list) : string list =
  let seen = Hashtbl.create 16 in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      Ir.iter_insts (Ir.find_func m name) (fun i ->
          match i.Ir.kind with Ir.Call (n, _) -> go n | _ -> ())
    end
  in
  List.iter go roots;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* Simulation + area/power accounting for an already-extracted pipeline. *)
let run_twill_threaded ?(opts = default_options) (t : Dswp.threaded) :
    twill_result =
  let threads = thread_specs t in
  let stats =
    Sim.simulate ~config:(sim_config opts) ~master:t.Dswp.master t.Dswp.modul
      ~threads ~queues:t.Dswp.queues ~nsems:t.Dswp.nsems ()
  in
  (* area: HW thread logic = LegUp translation of the hardware stages and
     every callee reachable from them *)
  let hw_roots =
    Array.to_list t.Dswp.stages
    |> List.filteri (fun s _ -> t.Dswp.roles.(s) = Partition.Hw)
  in
  let hw_funcs = reachable_funcs t.Dswp.modul hw_roots in
  (* banked designs replay banked schedules and pay the extra ports /
     bank-select muxes in the area model *)
  let banking_of =
    if opts.mem_banks <= 1 then fun _ -> None
    else begin
      let plan =
        lazy
          (let md = Twill_ir.Memdep.build t.Dswp.modul in
           Twill_ir.Memdep.plan md
             (Twill_ir.Layout.build t.Dswp.modul)
             ~banks:opts.mem_banks)
      in
      fun (f : Ir.func) ->
        let tbl = Twill_ir.Memdep.bank_table (Lazy.force plan) f in
        Some
          {
            Schedule.nbanks = opts.mem_banks;
            bank_of_id =
              (fun id ->
                if id >= 0 && id < Array.length tbl then tbl.(id) else None);
          }
    end
  in
  let hw_threads_area =
    Area.sum
      (List.map
         (fun name ->
           let f = Ir.find_func t.Dswp.modul name in
           let s =
             Schedule.cached ~res:opts.resources ~modulo:opts.modulo
               ~backend:opts.backend ?banking:(banking_of f) f
           in
           match opts.backend with
           | Schedule.Fsm -> Area.of_schedule ~banks:opts.mem_banks f s
           | Schedule.Dataflow ->
               Area.of_elastic_schedule ~banks:opts.mem_banks f s)
         hw_funcs)
  in
  let runtime_area =
    Area.of_runtime
      ~queues:
        (Array.to_list t.Dswp.queues
        (* merged channels share the survivor's FIFO — no fabric of
           their own (the merge pass's area win) *)
        |> List.filter (fun (q : Threadgen.queue_info) ->
               q.Threadgen.merged_into = None)
        |> List.map (fun (q : Threadgen.queue_info) ->
               (q.Threadgen.width_bits, q.Threadgen.depth)))
      ~nsems:t.Dswp.nsems ~n_hw_threads:(List.length hw_roots)
  in
  let area = Area.add hw_threads_area runtime_area in
  (* activities *)
  let makespan = max 1 stats.Sim.cycles in
  let mb_activity =
    match stats.Sim.thread_busy with
    | [||] -> 0.0
    | arr -> float_of_int (snd arr.(t.Dswp.master)) /. float_of_int makespan
  in
  let hw_busy =
    Array.to_list stats.Sim.thread_busy
    |> List.filteri (fun s _ -> s <> t.Dswp.master)
    |> List.map snd
  in
  let logic_activity =
    match hw_busy with
    | [] -> 0.0
    | l ->
        List.fold_left ( + ) 0 l
        |> fun total ->
        float_of_int total /. float_of_int (makespan * List.length l)
  in
  {
    scenario =
      {
        cycles = stats.Sim.cycles;
        ret = stats.Sim.ret;
        prints = stats.Sim.prints;
        area;
        power_mw =
          Power.power ~with_microblaze:true ~mb_activity ~area
            ~logic_activity ();
        executed = stats.Sim.executed;
      };
    threaded = t;
    hw_threads_area;
    runtime_area;
    n_hw_threads = List.length hw_roots;
    nqueues = Array.length t.Dswp.queues;
    nsems = t.Dswp.nsems;
    stats;
  }

(* The Twill hybrid flow. *)
let run_twill ?(opts = default_options) ?profile ?prep (m : Ir.modul) :
    twill_result =
  run_twill_threaded ~opts (extract ~opts ?profile ?prep m)

(* --- communication-pattern report (twillc comm-report, twilld "comm") ----- *)

type comm_summary = {
  comm_rep : Comm.report;  (* what each enabled pass did *)
  comm_profile : Sim.queue_profile array;
      (* seed profile of the *unoptimized* extraction, indexed by qid —
         the evidence the passes acted on *)
  comm_queues : Threadgen.queue_info array;  (* post-optimization channels *)
  comm_base_cycles : int;  (* unoptimized pipeline *)
  comm_opt_cycles : int;  (* with [opts.comm] applied *)
}

(* Extracts [m] twice — once with every comm pass off (the baseline whose
   profile and cycle count anchor the report) and once under [opts.comm]
   — and simulates both.  One instrumented profiling run serves both
   extractions. *)
let comm_summarize ?(opts = default_options) (m : Ir.modul) : comm_summary =
  let profile = profile_blocks ~opts m in
  let base_opts = { opts with comm = Comm.none } in
  let tb = extract ~opts:base_opts ~profile m in
  let base = run_twill_threaded ~opts:base_opts tb in
  let t, rep = extract_comm ~opts ~profile m in
  let r = run_twill_threaded ~opts t in
  {
    comm_rep = rep;
    comm_profile = base.stats.Sim.queue_profiles;
    comm_queues = t.Dswp.queues;
    comm_base_cycles = base.scenario.cycles;
    comm_opt_cycles = r.scenario.cycles;
  }

(* RTL co-simulation of an extracted design against the rtsim reference. *)
let cosim ?(opts = default_options) ?engine ?vcd (t : Dswp.threaded) :
    Cosim.report =
  let design =
    Vparse.parse
      (Vruntime.emit_design ~backend:opts.backend ~mem_banks:opts.mem_banks t)
  in
  Cosim.run_threaded ~config:(sim_config opts) ?engine ?vcd ~design t

(* Three-way differential co-simulation: the rtsim reference against
   BOTH RTL lowerings of the same extraction.  Each backend's cosim
   checks its RTL against the rtsim replay of its own schedule flavour
   (return value + print trace); across the two RTL runs the per-stage
   call-port issue streams must additionally be identical — the two
   schedules time operations differently, but the order chains
   serialize every memory and queue operation, so both lowerings of
   one partition drive the same request sequence at the HWInterface. *)
type backends_report = {
  bk_fsm : Cosim.report;
  bk_dataflow : Cosim.report;
  bk_ops_match : bool;  (* per-stage call-port streams identical *)
  bk_agree : bool;  (* all three observers agree *)
}

let cosim_backends ?(opts = default_options) ?engine (t : Dswp.threaded) :
    backends_report =
  let run backend =
    let opts = { opts with backend } in
    let design =
      Vparse.parse
        (Vruntime.emit_design ~backend ~mem_banks:opts.mem_banks t)
    in
    Cosim.run_threaded ~config:(sim_config opts) ?engine ~trace:true ~design t
  in
  let bk_fsm = run Schedule.Fsm in
  let bk_dataflow = run Schedule.Dataflow in
  let bk_ops_match =
    if opts.mem_banks <= 1 then bk_fsm.Cosim.rtl_ops = bk_dataflow.Cosim.rtl_ops
    else begin
      (* Under banking the two schedules may legally interleave requests
         to DIFFERENT banks differently — each bank port is an
         independent ordering domain.  What must still agree per stage
         is every per-bank memory stream plus the non-memory (queue/
         semaphore/print) stream. *)
      let md = Twill_ir.Memdep.build t.Dswp.modul in
      let layout = Twill_ir.Layout.build t.Dswp.modul in
      let plan = Twill_ir.Memdep.plan md layout ~banks:opts.mem_banks in
      let project ops =
        let streams = Array.make (opts.mem_banks + 1) [] in
        List.iter
          (fun ((code, _, _, addr) as op) ->
            let k =
              if code = 0 || code = 1 then
                Twill_ir.Memdep.bank_of_addr plan (Int32.of_int addr)
              else opts.mem_banks
            in
            streams.(k) <- op :: streams.(k))
          ops;
        Array.map List.rev streams
      in
      Array.map project bk_fsm.Cosim.rtl_ops
      = Array.map project bk_dataflow.Cosim.rtl_ops
    end
  in
  let bk_agree =
    bk_fsm.Cosim.agree && bk_dataflow.Cosim.agree
    && bk_fsm.Cosim.rtl_ret = bk_dataflow.Cosim.rtl_ret
    && bk_fsm.Cosim.rtl_prints = bk_dataflow.Cosim.rtl_prints
    && bk_ops_match
  in
  { bk_fsm; bk_dataflow; bk_ops_match; bk_agree }

(* --- full report (one benchmark, all three scenarios) --------------------- *)

type report = {
  name : string;
  sw : scenario;
  hw : scenario;
  twill : twill_result;
  speedup_vs_sw : float; (* Twill vs pure software *)
  speedup_vs_hw : float; (* Twill vs pure hardware *)
  hw_speedup_vs_sw : float; (* pure hardware vs pure software *)
}

exception Self_check_failed of string

(* Like the thesis's iterated partitioning (§5.2: the DSWP algorithm is
   re-run with adjusted targets), the driver tries several pipeline widths
   and keeps the best-performing extraction. *)
let run_twill_auto ?(opts = default_options) ?(widths = [ 2; 3; 4; 5 ])
    (m : Ir.modul) : twill_result =
  (* one instrumented profiling run and one PDG/weights analysis serve
     every width; widths whose partitions coincide (common on serial
     kernels, where the partitioner cannot fill the requested stages)
     share one simulation.  The distinct extractions are independent over
     a module DSWP no longer mutates, so they evaluate on parallel
     domains when slots are free. *)
  let prep = Dswp.prepare ~profile:(profile_blocks ~opts m) m in
  let opts_of k =
    { opts with partition = { opts.partition with Partition.nstages = k } }
  in
  let keyed =
    List.map
      (fun k ->
        let t = extract ~opts:(opts_of k) ~prep m in
        let key =
          Digest.string
            (Marshal.to_string
               ( t.Dswp.partition.Partition.stage_of_node,
                 t.Dswp.partition.Partition.roles )
               [])
        in
        (key, k, t))
      widths
  in
  let distinct =
    List.fold_left
      (fun acc (key, k, t) ->
        if List.mem_assoc key acc then acc else (key, (k, t)) :: acc)
      [] keyed
    |> List.rev
  in
  let simmed =
    Par.map
      (fun (key, (k, t)) -> (key, run_twill_threaded ~opts:(opts_of k) t))
      distinct
  in
  let candidates = List.map (fun (key, _, _) -> List.assoc key simmed) keyed in
  match candidates with
  | [] -> run_twill ~opts ~prep m
  | first :: rest ->
      (* prefer deeper pipelines when performance is within 2% — ties go
         to the configuration that actually exploits TLP *)
      List.fold_left
        (fun best c ->
          let cb = float_of_int best.scenario.cycles in
          if float_of_int c.scenario.cycles < 0.98 *. cb then c
          else if
            c.scenario.cycles <= best.scenario.cycles
            && c.n_hw_threads > best.n_hw_threads
          then c
          else best)
        first rest

(* Compiles and evaluates [src] under all three flows, checking that all
   of them observe identical behaviour (return value and print trace). *)
let evaluate ?(opts = default_options) ?(auto_stages = true) ~(name : string)
    (src : string) : report =
  let m = compile ~opts src in
  (* the three flows only read [m]; the hybrid (which itself fans out over
     pipeline widths) overlaps with both baselines when domains are free *)
  let (sw, hw), tw =
    Par.pair
      (fun () ->
        Par.pair (fun () -> run_pure_sw ~opts m) (fun () -> run_pure_hw ~opts m))
      (fun () ->
        if auto_stages then run_twill_auto ~opts m else run_twill ~opts m)
  in
  if
    sw.ret <> hw.ret || sw.ret <> tw.scenario.ret || sw.prints <> hw.prints
    || sw.prints <> tw.scenario.prints
  then
    raise
      (Self_check_failed
         (Printf.sprintf "%s: scenarios disagree (sw=%ld hw=%ld twill=%ld)"
            name sw.ret hw.ret tw.scenario.ret));
  let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    name;
    sw;
    hw;
    twill = tw;
    speedup_vs_sw = fdiv sw.cycles tw.scenario.cycles;
    speedup_vs_hw = fdiv hw.cycles tw.scenario.cycles;
    hw_speedup_vs_sw = fdiv sw.cycles hw.cycles;
  }

(* --- unified per-stage observation (the fuzzing oracle's probes) --------- *)

(* Every layer of the stack that claims observational equivalence with
   the source program is one observation point: the typed-AST reference
   interpreter, both IR interpreter engines on the raw module, the
   module after each prefix of the pass pipeline, the partitioned
   cycle-accurate rtsim execution, and vsim RTL co-simulation of each
   RTL lowering under a chosen scheduling engine (the default fuzz set
   uses the compiled engine; its fixpoint reference is diffed against
   it in the vsim test suite, not per fuzz case).  [observe] runs one
   point over one source string and reduces the run to the observables
   the thesis's correctness argument is about: return value + print
   trace. *)

type observation = { obs_ret : int32; obs_prints : int32 list }

(* The oracle observes one source string at every stage, scanning the
   pass prefixes in ascending order before reaching rtsim and the
   cosims.  Two one-entry per-domain memos keep that scan linear:

   - [opt_prep] holds the module after the first [odone] pipeline
     stages; observing prefix k >= odone applies only stages
     [odone, k) instead of re-compiling and re-running the whole
     prefix ([Pipeline.run_range] splits exactly like that).  Sound
     because passes are deterministic in-place transforms and
     [Interp.run] builds its decode context per call without mutating
     the module (interp.ml header).
   - [obs_prep] holds the optimised-and-extracted pipeline shared by
     the last three stages (rtsim, then one cosim per RTL backend).

   Per-domain because the fuzz campaign fans cases out over a [Par]
   pool; one entry because each case's stages are scanned
   consecutively within a domain. *)
type opt_prep = {
  osrc : string;
  oopts : Pipeline.options;
  mutable odone : int;  (* pipeline stages applied to [om] so far *)
  om : Ir.modul;
  mutable oruns : (Interp.engine * int * Interp.result) list;
      (* interpreter observations of [om] in its current state, keyed
         by (engine, fuel); flushed whenever a stage changes [om].
         Interpretation is deterministic, so when [run_range] reports
         that the new stages of a prefix were all no-ops, the previous
         prefix's observation is the current one. *)
}

let opt_prep_memo : opt_prep option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let opt_prep ~opts (k : int) (src : string) : opt_prep =
  let popts = pipeline_options opts in
  let memo = Domain.DLS.get opt_prep_memo in
  match !memo with
  | Some p when String.equal p.osrc src && p.oopts = popts && p.odone <= k ->
      if Pipeline.run_range ~opts:popts p.odone k p.om then p.oruns <- [];
      p.odone <- k;
      p
  | _ ->
      let m = Minic.compile src in
      Pipeline.run_prefix ~opts:popts k m;
      let p = { osrc = src; oopts = popts; odone = k; om = m; oruns = [] } in
      memo := Some p;
      p

let opt_interp ~opts (k : int) (engine : Interp.engine) (src : string) :
    Interp.result =
  let p = opt_prep ~opts k src in
  match
    List.find_opt (fun (e, fuel, _) -> e = engine && fuel = opts.fuel) p.oruns
  with
  | Some (_, _, r) -> r
  | None ->
      let r = Interp.run ~fuel:opts.fuel ~engine p.om in
      p.oruns <- (engine, opts.fuel, r) :: p.oruns;
      r

type obs_prep = {
  prep_src : string;
  prep_opts : options;
  prep_t : Dswp.threaded;
  prep_design : Vparse.design Lazy.t;
      (* emitted+parsed Verilog of [prep_t] under [prep_opts.backend];
         lazy because the rtsim stage populates the memo without
         needing it, shared because elaboration only reads it (one
         parse serves every engine) *)
  prep_design_df : Vparse.design Lazy.t;
      (* the same pipeline under the elastic dataflow lowering — the
         cross-backend observation point ([Obs_velastic]) *)
}

let obs_prep_memo : obs_prep option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let obs_prep ~opts (src : string) : obs_prep =
  let memo = Domain.DLS.get obs_prep_memo in
  match !memo with
  | Some p when String.equal p.prep_src src && p.prep_opts = opts -> p
  | _ ->
      (* extraction mutates the module in place, so once the prefix
         memo's module is promoted to the full pipeline and handed
         over, the prefix memo must stop serving it *)
      let m =
        let popts = pipeline_options opts in
        let omemo = Domain.DLS.get opt_prep_memo in
        match !omemo with
        | Some p when String.equal p.osrc src && p.oopts = popts ->
            ignore (Pipeline.run_range ~opts:popts p.odone Pipeline.nstages p.om);
            omemo := None;
            p.om
        | _ -> compile ~opts src
      in
      let t = extract ~opts m in
      let p =
        {
          prep_src = src;
          prep_opts = opts;
          prep_t = t;
          prep_design =
            lazy
              (Vparse.parse
                 (Vruntime.emit_design ~backend:opts.backend
                    ~mem_banks:opts.mem_banks t));
          prep_design_df =
            lazy
              (Vparse.parse
                 (Vruntime.emit_design ~backend:Schedule.Dataflow
                    ~mem_banks:opts.mem_banks t));
        }
      in
      memo := Some p;
      p

type obs_stage =
  | Obs_ast  (* typed-AST reference interpreter *)
  | Obs_ir of Interp.engine  (* raw (unoptimised) IR *)
  | Obs_opt of int * Interp.engine  (* after the first k pipeline stages *)
  | Obs_rtsim  (* partitioned cycle-accurate simulation *)
  | Obs_vsim of Vsim.engine  (* RTL co-simulation of the emitted design *)
  | Obs_velastic of Vsim.engine
    (* RTL co-simulation of the elastic dataflow lowering of the same
       pipeline (the cross-backend differential observation point) *)

type obs_outcome =
  | Obs_ok of observation
  | Obs_skip of string  (* ran out of budget; not a verdict *)
  | Obs_error of string  (* the stage failed outright *)

let engine_suffix = function Interp.Decoded -> "" | Interp.Tree -> "-tree"

let obs_stage_name = function
  | Obs_ast -> "ast"
  | Obs_ir e -> "ir" ^ engine_suffix e
  | Obs_opt (k, e) ->
      let pass =
        if k <= 0 then "none"
        else List.nth Pipeline.stage_names (min k Pipeline.nstages - 1)
      in
      Printf.sprintf "opt[%s]%s" pass (engine_suffix e)
  | Obs_rtsim -> "rtsim"
  | Obs_vsim e -> "vsim-" ^ Vsim.engine_name e
  | Obs_velastic e -> "vsim-df-" ^ Vsim.engine_name e

let obs_stages : obs_stage list =
  [ Obs_ast; Obs_ir Interp.Tree; Obs_ir Interp.Decoded ]
  @ List.init Pipeline.nstages (fun k -> Obs_opt (k + 1, Interp.Decoded))
  @ [ Obs_opt (Pipeline.nstages, Interp.Tree); Obs_rtsim;
      Obs_vsim Vsim.Compiled; Obs_velastic Vsim.Compiled ]

let contains_substr ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let observe ?(opts = default_options) ~(stage : obs_stage) (src : string) :
    obs_outcome =
  try
    match stage with
    | Obs_ast ->
        let r = Minic.run_reference ~fuel:opts.fuel src in
        Obs_ok
          {
            obs_ret = r.Twill_minic.Ast_interp.ret;
            obs_prints = r.Twill_minic.Ast_interp.prints;
          }
    | Obs_ir engine ->
        let r = opt_interp ~opts 0 engine src in
        Obs_ok { obs_ret = r.Interp.ret; obs_prints = r.Interp.prints }
    | Obs_opt (k, engine) ->
        let r = opt_interp ~opts k engine src in
        Obs_ok { obs_ret = r.Interp.ret; obs_prints = r.Interp.prints }
    | Obs_rtsim ->
        let p = obs_prep ~opts src in
        let r = run_twill_threaded ~opts p.prep_t in
        Obs_ok { obs_ret = r.scenario.ret; obs_prints = r.scenario.prints }
    | Obs_vsim engine ->
        let p = obs_prep ~opts src in
        (* [~model:false]: the oracle compares every stage against the
           AST reference itself, and rtsim is its own observation point
           — re-running the reference inside the cosim would only
           duplicate work the chain already did. *)
        let r =
          Cosim.run_threaded ~config:(sim_config opts) ~engine ~model:false
            ~design:(Lazy.force p.prep_design) p.prep_t
        in
        Obs_ok { obs_ret = r.Cosim.rtl_ret; obs_prints = r.Cosim.rtl_prints }
    | Obs_velastic engine ->
        let p = obs_prep ~opts src in
        let r =
          Cosim.run_threaded
            ~config:(sim_config { opts with backend = Schedule.Dataflow })
            ~engine ~model:false
            ~design:(Lazy.force p.prep_design_df)
            p.prep_t
        in
        Obs_ok { obs_ret = r.Cosim.rtl_ret; obs_prints = r.Cosim.rtl_prints }
  with
  | Minic.Error msg -> Obs_error ("compile: " ^ msg)
  | Twill_minic.Ast_interp.Out_of_fuel | Interp.Out_of_fuel ->
      Obs_skip "out of fuel"
  | Sim.Out_of_fuel msg -> Obs_skip ("out of fuel: " ^ msg)
  | Twill_minic.Ast_interp.Trap msg | Interp.Trap msg ->
      Obs_error ("trap: " ^ msg)
  | Sim.Deadlock msg -> Obs_error ("deadlock: " ^ msg)
  | Cosim.Cosim_error msg ->
      if contains_substr ~sub:"out of fuel" msg then Obs_skip msg
      else Obs_error ("cosim: " ^ msg)
  | Twill_vsim.Vsim.Sim_error msg -> Obs_error ("vsim: " ^ msg)
  | Failure msg -> Obs_error ("failure: " ^ msg)
  | Invalid_argument msg -> Obs_error ("invalid: " ^ msg)
