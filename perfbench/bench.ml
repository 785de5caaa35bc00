(* The Twill benchmark: one closed-loop client timing whole items of
   work through Twill's public entry points, with default engines.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Every input is generated from --seed.  Each item is timed against a
   fixed reference computation run just before it, so timings are in
   "ref units" and host speed drift largely cancels.  The last line of
   standard output is one JSON object with the run's metrics;
   README.md in this directory defines them. *)

open Twill
module C = Twill_chstone.Chstone
module R = Perfbench_reduce.Reduce
module Oracle = Twill_fuzz.Oracle
module Gen = Twill_fuzz.Gen

let now = Spans.now
let span = Spans.with_span

(* --- reference computation ---------------------------------------------- *)

(* Stdlib only, shares no code with Twill, and allocates only
   short-lived values: many small maps built, folded and sorted.  About
   3 ms on a 2-core x86-64 VM. *)
module IM = Map.Make (Int)

let reference_rounds = 300

let reference () =
  let st = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to reference_rounds do
    let m = ref IM.empty in
    for _ = 1 to 48 do
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      m := IM.add (!st land 0xFFF) !st !m
    done;
    let l = IM.fold (fun k v acc -> (k lxor v) :: acc) !m [] in
    acc := !acc + List.hd (List.sort compare l)
  done;
  ignore (Sys.opaque_identity !acc)

(* --- items ---------------------------------------------------------------- *)

(* What one item produced: whether every check passed, the first failed
   check, the input's deterministic values (which must repeat on every
   pass) and its quality-of-result values. *)
type outcome = {
  ok : bool;
  msg : string;
  fp : string;
  qor : (string * float) list;
}

type input = {
  id : string;
  run : unit -> outcome;  (* the public calls, untraced *)
  traced : unit -> outcome;  (* the same work split into spans *)
}

let fail msg = { ok = false; msg; fp = ""; qor = [] }

let guard f () =
  try f () with e -> fail ("exception: " ^ Printexc.to_string e)

let ir_insts (m : Ir.modul) =
  let n = ref 0 in
  List.iter (fun f -> Ir.iter_insts f (fun _ -> incr n)) m.Ir.funcs;
  float_of_int !n

(* The AST reference interpreter is the independent oracle for every
   kernel; set-up checks it against the pinned checksum. *)
let reference_of (b : C.benchmark) =
  let r = Minic.run_reference b.C.source in
  let ret = r.Twill_minic.Ast_interp.ret in
  (match b.C.expected with
  | Some e when not (Int32.equal e ret) ->
      failwith (Printf.sprintf "%s: reference returned %ld, pinned %ld" b.C.name ret e)
  | _ -> ());
  (ret, r.Twill_minic.Ast_interp.prints)

let check_obs what (ret, prints) (ret', prints') =
  if not (Int32.equal ret ret') then
    Some (Printf.sprintf "%s returned %ld, reference %ld" what ret' ret)
  else if prints <> prints' then Some (what ^ " print trace differs from reference")
  else None

let first_failure l = List.find_map Fun.id l

(* --- chstone-flows -------------------------------------------------------- *)

(* Operating points.  Host time depends mostly on the backend, the comm
   passes and the bank count, and on their interactions, so these follow
   a fixed balanced design: every kernel gets each backend x comm pair
   once, and the bank counts 1, 2, 4 and 8 rotate with the kernel index.
   The seed draws the queue latency and queue depth of every point (the
   thesis's Figures 6.5 and 6.6 axes), each a seeded permutation of the
   same four levels per kernel.  Every seed thus covers the same design
   space with a comparable cost mix, which keeps the spread across seeds
   small. *)
let n_points = 4
let latencies = [| 1; 2; 4; 8 |]
let depths = [| 2; 4; 8; 16 |]
let banks = [| 1; 2; 4; 8 |]
let backends = [| Schedule.Fsm; Schedule.Fsm; Schedule.Dataflow; Schedule.Dataflow |]
let comms = [| Comm.none; Comm.all; Comm.none; Comm.all |]

let permutation rst n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rst (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let draw_points ~seed ki : (string * options) list =
  let rst = Random.State.make [| 0x71f0; seed; ki |] in
  let pl = permutation rst n_points in
  let pd = permutation rst n_points in
  List.init n_points (fun j ->
      let lat = latencies.(pl.(j)) and depth = depths.(pd.(j)) in
      let nb = banks.((j + ki) mod n_points) in
      let backend = backends.(j) and comm = comms.(j) in
      ( Printf.sprintf "lat%d.depth%d.banks%d.%s%s" lat depth nb
          (Schedule.backend_name backend)
          (if Comm.enabled comm then ".comm" else ""),
        {
          default_options with
          queue_latency = lat;
          queue_depth = depth;
          mem_banks = nb;
          backend;
          comm;
        } ))

(* run_twill_auto's widths and selection rule, replayed for the traced
   run; the traced result must equal the untraced one. *)
let widths = [ 2; 3; 4; 5 ]

let prewarm_hls ~opts (t : Dswp.threaded) =
  (* banked schedules are keyed by bank plan and stay inside rtsim *)
  if opts.mem_banks <= 1 then
    span "hls" (fun () ->
        let hw_roots =
          Array.to_list t.Dswp.stages
          |> List.filteri (fun s _ -> t.Dswp.roles.(s) = Partition.Hw)
        in
        List.iter
          (fun name ->
            let s =
              Schedule.cached ~res:opts.resources ~modulo:opts.modulo
                ~backend:opts.backend (Ir.find_func t.Dswp.modul name)
            in
            Spans.count "hls.states" (float_of_int s.Schedule.total_states))
          (reachable_funcs t.Dswp.modul hw_roots))

let auto_traced ~opts m =
  let profile = span "ir.profile" (fun () -> profile_blocks ~opts m) in
  let prep = span "dswp" (fun () -> Dswp.prepare ~profile m) in
  let opts_of k = { opts with partition = { opts.partition with Partition.nstages = k } } in
  let keyed =
    List.map
      (fun k ->
        let t = span "dswp" (fun () -> extract ~opts:(opts_of k) ~prep m) in
        let key =
          Digest.string
            (Marshal.to_string
               (t.Dswp.partition.Partition.stage_of_node, t.Dswp.partition.Partition.roles)
               [])
        in
        (key, k, t))
      widths
  in
  let distinct =
    List.fold_left
      (fun acc (key, k, t) -> if List.mem_assoc key acc then acc else (key, (k, t)) :: acc)
      [] keyed
    |> List.rev
  in
  let simmed =
    List.map
      (fun (key, (k, t)) ->
        prewarm_hls ~opts:(opts_of k) t;
        let r = span "rtsim" (fun () -> run_twill_threaded ~opts:(opts_of k) t) in
        Spans.count "rtsim.sim_cycles" (float_of_int r.scenario.cycles);
        (key, r))
      distinct
  in
  match List.map (fun (key, _, _) -> List.assoc key simmed) keyed with
  | [] -> failwith "no widths"
  | first :: rest ->
      List.fold_left
        (fun best c ->
          let cb = float_of_int best.scenario.cycles in
          if float_of_int c.scenario.cycles < 0.98 *. cb then c
          else if c.scenario.cycles <= best.scenario.cycles && c.n_hw_threads > best.n_hw_threads
          then c
          else best)
        first rest

let flows_outcome ~thesis ~refobs (sw : scenario) (hw : scenario) (tw : twill_result) =
  let checks =
    [
      check_obs "pure SW" refobs (sw.ret, sw.prints);
      check_obs "pure HW" refobs (hw.ret, hw.prints);
      check_obs "hybrid" refobs (tw.scenario.ret, tw.scenario.prints);
    ]
  in
  match first_failure checks with
  | Some msg -> fail msg
  | None ->
      {
        ok = true;
        msg = "";
        fp =
          Printf.sprintf "sw=%d hw=%d tw=%d luts=%d hwluts=%d queues=%d stages=%d" sw.cycles
            hw.cycles tw.scenario.cycles tw.scenario.area.Area.luts hw.area.Area.luts tw.nqueues
            (Array.length tw.threaded.Dswp.stages);
        qor =
          (if thesis then
             [
               ("speedup_vs_sw", float_of_int sw.cycles /. float_of_int tw.scenario.cycles);
               ("luts", float_of_int tw.scenario.area.Area.luts);
               ("design_cycles", float_of_int tw.scenario.cycles);
             ]
           else []);
      }

let flows_input ~refobs (b : C.benchmark) (tag, opts) =
  let thesis = tag = "thesis" in
  let src = b.C.source in
  let run () =
    (* the three flows run in sequence, not through [Twill.evaluate]:
       see README.md, "The evaluate race" *)
    let m = compile ~opts src in
    let sw = run_pure_sw ~opts m in
    let hw = run_pure_hw ~opts m in
    let tw = run_twill_auto ~opts m in
    flows_outcome ~thesis ~refobs sw hw tw
  in
  let traced () =
    let popts = pipeline_options opts in
    let m = span "minic" (fun () -> Minic.compile src) in
    List.iteri
      (fun k name ->
        span ("passes." ^ name) (fun () -> ignore (Pipeline.run_range ~opts:popts k (k + 1) m)))
      Pipeline.stage_names;
    Spans.count "passes.ir_insts" (ir_insts m);
    let sw = span "flows.sw" (fun () -> run_pure_sw ~opts m) in
    span "hls" (fun () ->
        List.iter
          (fun (_, s) -> Spans.count "hls.states" (float_of_int s.Schedule.total_states))
          (schedules_for { opts with backend = Schedule.Fsm } m));
    let hw = span "flows.hw" (fun () -> run_pure_hw ~opts m) in
    let tw = auto_traced ~opts m in
    Spans.count "dswp.queues" (float_of_int tw.nqueues);
    flows_outcome ~thesis ~refobs sw hw tw
  in
  { id = b.C.name ^ "@" ^ tag; run = guard run; traced = guard traced }

let flows_setup ~seed =
  List.mapi
    (fun ki (b : C.benchmark) () ->
      let refobs = reference_of b in
      List.map (flows_input ~refobs b) (("thesis", default_options) :: draw_points ~seed ki))
    C.all

(* --- chstone-cosim -------------------------------------------------------- *)

let elaborate_side design (t : Dswp.threaded) =
  (* the instances Cosim.run_threaded elaborates before its clock loop,
     elaborated once more as a side measurement *)
  span ~side:true "vsim.elab" (fun () ->
      Array.iteri
        (fun s name ->
          if t.Dswp.roles.(s) = Partition.Hw then
            ignore (Vsim.instantiate design ("twill_thread_" ^ name)))
        t.Dswp.stages;
      Array.iter
        (fun (q : Threadgen.queue_info) ->
          if q.Threadgen.merged_into = None then
            ignore
              (Vsim.instantiate
                 ~overrides:[ ("WIDTH", q.Threadgen.width_bits); ("DEPTH", max 1 q.Threadgen.depth) ]
                 design "twill_queue"))
        t.Dswp.queues;
      for _ = 1 to t.Dswp.nsems do
        ignore
          (Vsim.instantiate ~overrides:[ ("MAX_COUNT", 1); ("INITIAL", 1) ] design "twill_semaphore")
      done)

let emit_parse ~backend ~mem_banks t =
  let v = span "vgen" (fun () -> Vruntime.emit_design ~backend ~mem_banks t) in
  let bytes = float_of_int (String.length v) in
  Spans.count "vgen.verilog_bytes" bytes;
  Spans.count "vsim.parse.bytes" bytes;
  span "vsim.parse" (fun () -> Vparse.parse v)

let cosim_outcome ~refobs (r : Cosim.report) =
  let checks =
    [
      (if r.Cosim.agree then None else Some "RTL and rtsim disagree");
      check_obs "RTL" refobs (r.Cosim.rtl_ret, r.Cosim.rtl_prints);
    ]
  in
  match first_failure checks with
  | Some msg -> fail msg
  | None ->
      {
        ok = true;
        msg = "";
        fp = Printf.sprintf "rtl=%d rtsim=%d engine=%s" r.Cosim.rtl_cycles r.Cosim.model_cycles r.Cosim.rtl_engine;
        qor =
          [
            ("rtl_cycles", float_of_int r.Cosim.rtl_cycles);
            ("design_cycles", float_of_int r.Cosim.model_cycles);
            ("rtl_over_rtsim", float_of_int r.Cosim.rtl_cycles /. float_of_int r.Cosim.model_cycles);
          ];
      }

let cosim_setup ~seed:_ =
  List.map
    (fun (b : C.benchmark) () ->
      let refobs = reference_of b in
      List.map
        (fun backend ->
          let opts = { default_options with backend } in
          let t = (run_twill_auto ~opts (compile ~opts b.C.source)).threaded in
          let run () = cosim_outcome ~refobs (cosim ~opts t) in
          let traced () =
            let design = emit_parse ~backend ~mem_banks:opts.mem_banks t in
            elaborate_side design t;
            let r = span "cosim" (fun () -> Cosim.run_threaded ~config:(sim_config opts) ~design t) in
            Spans.count "cosim.rtl_cycles" (float_of_int r.Cosim.rtl_cycles);
            cosim_outcome ~refobs r
          in
          {
            id = b.C.name ^ "@" ^ Schedule.backend_name backend;
            run = guard run;
            traced = guard traced;
          })
        [ Schedule.Fsm; Schedule.Dataflow ])
    C.all

(* --- fuzz-oracle ---------------------------------------------------------- *)

let corpus_size = 500
let fuzz_limit = Oracle.L_vsim
let fuzz_backends = Oracle.B_both

let fuzz_outcome (r : Oracle.result) =
  let pairs l = String.concat "," (List.map (fun (s, m) -> s ^ ":" ^ m) l) in
  let verdict =
    match r.Oracle.verdict with
    | Oracle.Agree -> "agree"
    | Oracle.Skipped why -> "skipped " ^ why
    | Oracle.Diverge d -> "DIVERGE " ^ Oracle.divergence_to_string d
  in
  let fp = Printf.sprintf "%s skips=[%s] errors=[%s]" verdict (pairs r.Oracle.skips) (pairs r.Oracle.errors) in
  let reach =
    r.Oracle.verdict = Oracle.Agree
    && not
         (List.exists
            (fun (s, _) -> String.starts_with ~prefix:"vsim" s)
            (r.Oracle.skips @ r.Oracle.errors))
  in
  let ok = (match r.Oracle.verdict with Oracle.Diverge _ -> false | _ -> true) && r.Oracle.errors = [] in
  { ok; msg = (if ok then "" else fp); fp; qor = [ ("rtl_reach", if reach then 1.0 else 0.0) ] }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [Oracle.check] replayed through the public calls that [Twill.observe]
   makes, one span per call.  The exception mapping and the memo
   behaviour (each pipeline stage applied once, an unchanged module not
   re-interpreted, one extraction shared by rtsim and the cosims) follow
   [Twill.observe]; the traced result must equal [Oracle.check]'s. *)
let outcome_of f =
  try Obs_ok (f ()) with
  | Minic.Error msg -> Obs_error ("compile: " ^ msg)
  | Twill_minic.Ast_interp.Out_of_fuel | Interp.Out_of_fuel -> Obs_skip "out of fuel"
  | Sim.Out_of_fuel msg -> Obs_skip ("out of fuel: " ^ msg)
  | Twill_minic.Ast_interp.Trap msg | Interp.Trap msg -> Obs_error ("trap: " ^ msg)
  | Sim.Deadlock msg -> Obs_error ("deadlock: " ^ msg)
  | Cosim.Cosim_error msg ->
      if contains ~sub:"out of fuel" msg then Obs_skip msg else Obs_error ("cosim: " ^ msg)
  | Vsim.Sim_error msg -> Obs_error ("vsim: " ^ msg)
  | Failure msg -> Obs_error ("failure: " ^ msg)
  | Invalid_argument msg -> Obs_error ("invalid: " ^ msg)

let check_traced src : Oracle.result =
  let opts = default_options in
  let popts = pipeline_options opts in
  let obs ret prints = { obs_ret = ret; obs_prints = prints } in
  let ast =
    outcome_of (fun () ->
        let r = span "fuzz.ast" (fun () -> Minic.run_reference ~fuel:opts.fuel src) in
        obs r.Twill_minic.Ast_interp.ret r.Twill_minic.Ast_interp.prints)
  in
  match ast with
  | Obs_skip r | Obs_error r -> { Oracle.verdict = Oracle.Skipped ("ast: " ^ r); skips = []; errors = [] }
  | Obs_ok baseline ->
      let m = lazy (span "minic" (fun () -> Minic.compile src)) in
      let applied = ref 0 and runs = ref [] in
      (* applies the next pipeline stage; a change invalidates [runs] *)
      let apply_next m =
        let name = List.nth Pipeline.stage_names !applied in
        if span ("passes." ^ name) (fun () -> Pipeline.run_range ~opts:popts !applied (!applied + 1) m)
        then runs := [];
        incr applied;
        if !applied = Pipeline.nstages then Spans.count "passes.ir_insts" (ir_insts m)
      in
      let opt_interp k engine =
        let m = Lazy.force m in
        while !applied < k do
          apply_next m
        done;
        let r =
          match List.assoc_opt engine !runs with
          | Some r -> r
          | None ->
              let r = span "fuzz.interp" (fun () -> Interp.run ~fuel:opts.fuel ~engine m) in
              runs := (engine, r) :: !runs;
              r
        in
        obs r.Interp.ret r.Interp.prints
      in
      let prep =
        lazy
          (let m = Lazy.force m in
           while !applied < Pipeline.nstages do
             apply_next m
           done;
           span "dswp" (fun () -> extract ~opts m))
      in
      let design backend =
        lazy
          (let t = Lazy.force prep in
           let d = emit_parse ~backend ~mem_banks:opts.mem_banks t in
           elaborate_side d t;
           d)
      in
      let design_fsm = design opts.backend and design_df = design Schedule.Dataflow in
      let cosim_obs ~config ~engine design =
        let t = Lazy.force prep in
        let design = Lazy.force design in
        let r = span "cosim" (fun () -> Cosim.run_threaded ~config ~engine ~model:false ~design t) in
        Spans.count "cosim.rtl_cycles" (float_of_int r.Cosim.rtl_cycles);
        obs r.Cosim.rtl_ret r.Cosim.rtl_prints
      in
      let observe = function
        | Obs_ast -> assert false
        | Obs_ir engine -> opt_interp 0 engine
        | Obs_opt (k, engine) -> opt_interp k engine
        | Obs_rtsim ->
            let t = Lazy.force prep in
            Spans.count "dswp.queues" (float_of_int (Array.length t.Dswp.queues));
            let r = span "rtsim" (fun () -> run_twill_threaded ~opts t) in
            Spans.count "rtsim.sim_cycles" (float_of_int r.scenario.cycles);
            obs r.scenario.ret r.scenario.prints
        | Obs_vsim engine -> cosim_obs ~config:(sim_config opts) ~engine design_fsm
        | Obs_velastic engine ->
            cosim_obs
              ~config:(sim_config { opts with backend = Schedule.Dataflow })
              ~engine design_df
      in
      let skips = ref [] and errors = ref [] in
      let rec scan = function
        | [] -> Oracle.Agree
        | stage :: rest -> (
            let name = obs_stage_name stage in
            match outcome_of (fun () -> observe stage) with
            | Obs_ok o ->
                if Oracle.obs_equal baseline o then scan rest
                else Oracle.Diverge { div_stage = name; div_expected = baseline; div_got = o }
            | Obs_skip r ->
                skips := (name, r) :: !skips;
                scan rest
            | Obs_error r ->
                errors := (name, r) :: !errors;
                scan rest)
      in
      let stages =
        List.filter (fun s -> s <> Obs_ast) (Oracle.stages_for ~backends:fuzz_backends fuzz_limit)
      in
      let verdict = scan stages in
      { verdict; skips = List.rev !skips; errors = List.rev !errors }

(* A case's source, regenerated from (seed, index) when its item runs, as
   a fuzz campaign case is.  Holding a 1000-case corpus's sources on the
   heap for the whole run made every item of some seeds' runs about 16%
   slower. *)
let case_source ~seed index = Twill_minic.Ast_pp.program_to_string (Gen.program ~seed ~index)

let fuzz_case ~seed index =
  ignore (Sys.opaque_identity (span "fuzz.gen" (fun () -> Gen.program ~seed ~index)));
  Spans.count "fuzz.gen.programs" 1.0;
  let run () =
    fuzz_outcome (Oracle.check ~limit:fuzz_limit ~backends:fuzz_backends (case_source ~seed index))
  in
  let traced () =
    let r = check_traced (case_source ~seed index) in
    let o = fuzz_outcome r in
    Spans.count "fuzz.skips" (float_of_int (List.length r.Oracle.skips));
    if List.assoc_opt "rtl_reach" o.qor = Some 1.0 then Spans.count "fuzz.rtl_cases" 1.0;
    o
  in
  { id = Printf.sprintf "case%d" index; run = guard run; traced = guard traced }

let fuzz_setup_steps = 5

let fuzz_setup ~seed =
  let per_step = corpus_size / fuzz_setup_steps in
  List.init fuzz_setup_steps (fun step () ->
      List.init per_step (fun j -> fuzz_case ~seed ((step * per_step) + j)))

(* --- workloads ------------------------------------------------------------ *)

(* A workload's set-up is a list of steps, each producing some of the
   inputs (one kernel, or a slice of the corpus); set-up timing
   normalises each step by a reference run just before it. *)
type workload = { wname : string; setup : seed:int -> (unit -> input list) list }

let workloads =
  [
    { wname = "chstone-flows"; setup = flows_setup };
    { wname = "chstone-cosim"; setup = cosim_setup };
    { wname = "fuzz-oracle"; setup = fuzz_setup };
  ]

(* End-to-end metrics: name, unit.  The quality-of-result metrics are
   geomeans (rtl_reach_frac: the mean) of a [qor] key over the inputs
   that report it; a workload whose inputs report none prints 1, the
   neutral value, so every workload prints every metric. *)
let qor_metrics =
  [
    ("speedup_vs_sw_geo", "x", "speedup_vs_sw", `Geo);
    ("luts_geo", "LUT", "luts", `Geo);
    ("rtl_cycles_geo", "cycles", "rtl_cycles", `Geo);
    ("rtl_reach_frac", "frac", "rtl_reach", `Mean);
  ]

let mb bytes = bytes /. 1048576.0
let heap_mb words = mb (float_of_int (words * (Sys.word_size / 8)))

(* --- the run -------------------------------------------------------------- *)

(* Set-up repeats at least [setup_min_reps] times and until the
   set-ups took [setup_min_s] seconds in all, at most [setup_max_reps]. *)
let setup_min_reps = 7
let setup_max_reps = 41
let setup_min_s = 1.0
let warmup_items = 64
let min_rounds = 2

(* The reference computation's nominal duration, its median wall time
   on a 2-core x86-64 VM.  Host-normalised durations are expressed in
   seconds by multiplying with it: [setup_s], and the length of the
   measurement, which is --seconds of host-normalised time, so that the
   number of items a run measures does not follow the host's speed. *)
let reference_nominal_s = 0.0035

(* The measurement stops at the round end nearest to --seconds at which
   p90 is trusted, and starts no round that would end past [hard_cap]
   seconds of wall time. *)
let hard_cap = 120.0

type sample = { inp : int; round : int; norm : float; raw : float; alloc : float; out : outcome }

(* [f] of the samples, one array per measurement round *)
let by_round f samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s -> Hashtbl.replace tbl s.round (f s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.round)))
    samples;
  Hashtbl.fold (fun _ l acc -> Array.of_list l :: acc) tbl []

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))

let usage () =
  prerr_endline
    "usage: bench.exe --workload (chstone-flows|chstone-cosim|fuzz-oracle) --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let traced_run = !trace = 1 in
  Spans.enabled := traced_run;
  let seed = !seed in
  (* set-up, several times, each from an empty schedule cache and a
     clean heap as in a fresh process; the median is reported *)
  let rec set_up acc ~reps ~total =
    Schedule.clear_cache ();
    Gc.full_major ();
    let norm, raw, inputs =
      List.fold_left
        (fun (norm, raw, inputs) step ->
          let r0 = now () in
          reference ();
          let r1 = now () in
          let more = step () in
          let dt = now () -. r1 in
          (norm +. R.ratio ~item:dt ~reference:(r1 -. r0), raw +. dt, List.rev_append more inputs))
        (0.0, 0.0, []) (w.setup ~seed)
    in
    let inputs = Array.of_list (List.rev inputs) in
    let acc = (norm, raw) :: acc and reps = reps + 1 and total = total +. raw in
    if reps >= setup_max_reps || (reps >= setup_min_reps && total >= setup_min_s) then (List.rev acc, inputs)
    else set_up acc ~reps ~total
  in
  let setups, inputs = set_up [] ~reps:0 ~total:0.0 in
  let setup_s = reference_nominal_s *. R.median (Array.of_list (List.map fst setups)) in
  let setup_raw = List.map snd setups in
  let n = Array.length inputs in
  let first_fp : (int, string) Hashtbl.t = Hashtbl.create n in
  let passes = Array.make n 0 in
  let samples = ref [] in
  let report_failure i (o : outcome) =
    Printf.printf "FAIL %s seed=%d input=%s: %s\n%!" w.wname seed inputs.(i).id o.msg
  in
  (* a passing item must reproduce the first pass's deterministic values *)
  let settle i (o : outcome) =
    let o =
      if not o.ok then o
      else
        match Hashtbl.find_opt first_fp i with
        | None -> Hashtbl.add first_fp i o.fp; o
        | Some fp when fp = o.fp -> o
        | Some fp -> fail (Printf.sprintf "not repeatable: first %s, now %s" fp o.fp)
    in
    if not o.ok then report_failure i o;
    passes.(i) <- passes.(i) + 1;
    o
  in
  (* warm-up, untimed, results checked: the first [warmup_items] inputs
     in index order, a whole round when there are no more inputs *)
  let nwarm = min n warmup_items in
  let warm_oks = List.init nwarm (fun i -> (settle i (inputs.(i).run ())).ok) in
  let next = R.order ~after:(nwarm - 1) ~seed ~n () in
  (* one clean heap before the measurement; from here on, the major
     collections and the schedule cache's contents carry over from item
     to item as in any long-lived Twill process, and their cost falls
     inside the items that cause it *)
  Gc.full_major ();
  (* measure whole rounds, so every input has the same number of
     samples: at least [min_rounds], until p90 has enough samples beyond
     it, stopping at the round end nearest to --seconds *)
  let t_start = now () in
  (* the measurement's elapsed time: host-normalised, items and their
     references, in the untraced run; wall time in the traced run *)
  let norm_clock = ref 0.0 in
  let elapsed () = if traced_run then now () -. t_start else reference_nominal_s *. !norm_clock in
  let p90_trusted () =
    traced_run || (R.round_percentile (by_round (fun s -> s.norm) !samples) 90.0).R.trusted
  in
  let enough ~rounds ~last =
    rounds >= min_rounds && elapsed () +. (last /. 2.0) >= !seconds && p90_trusted ()
  in
  let capped ~last_wall = now () -. t_start +. last_wall > hard_cap in
  let overhead_num = ref 0.0 and overhead_den = ref 0.0 in
  let k = ref 0 and round = ref 0 in
  let item () =
    let i = next () in
    let r0 = now () in
    reference ();
    let r1 = now () in
    if not traced_run then begin
      let a0 = Gc.allocated_bytes () in
      let o = inputs.(i).run () in
      let raw = now () -. r1 in
      let alloc = mb (Gc.allocated_bytes () -. a0) in
      norm_clock := !norm_clock +. R.ratio ~item:(raw +. r1 -. r0) ~reference:(r1 -. r0);
      samples :=
        { inp = i; round = !round; norm = R.ratio ~item:raw ~reference:(r1 -. r0); raw; alloc; out = settle i o }
        :: !samples
    end
    else begin
      (* untraced and traced back to back, alternating which goes first *)
      let untraced () =
        let t0 = now () in
        let o = inputs.(i).run () in
        (o, now () -. t0)
      in
      let traced () =
        Spans.item := !k;
        let side0 = !Spans.side_s in
        let t0 = now () in
        let o = span "item" inputs.(i).traced in
        let dt = now () -. t0 -. (!Spans.side_s -. side0) in
        Spans.item := -1;
        (o, dt)
      in
      let (u, tu), (tr, tt) =
        if !k mod 2 = 0 then
          let u = untraced () in
          (u, traced ())
        else
          let tr = traced () in
          (untraced (), tr)
      in
      overhead_num := !overhead_num +. (tt -. tu);
      overhead_den := !overhead_den +. tu;
      let u = settle i u in
      let tr =
        if not u.ok then u
        else if tr.ok && tr.fp = u.fp && tr.qor = u.qor then tr
        else if not tr.ok then tr
        else fail (Printf.sprintf "traced result %s differs from untraced %s" tr.fp u.fp)
      in
      if not tr.ok && u.ok then report_failure i tr;
      samples := { inp = i; round = !round; norm = 0.0; raw = tu; alloc = 0.0; out = tr } :: !samples
    end;
    incr k
  in
  let last = ref 0.0 and last_wall = ref 0.0 and cap_hit = ref false in
  while not (enough ~rounds:!round ~last:!last) && not !cap_hit do
    if !round >= min_rounds && capped ~last_wall:!last_wall then cap_hit := true
    else begin
      let t0 = now () and e0 = elapsed () in
      for _ = 1 to n do
        item ()
      done;
      incr round;
      last := elapsed () -. e0;
      last_wall := now () -. t0
    end
  done;
  let p90_ok = p90_trusted () in
  if !cap_hit then
    Printf.printf "%s seed=%d: stopped by the %.0f s cap after %d rounds%s\n" w.wname seed hard_cap !round
      (if p90_ok then "" else "; p90 untrusted, run marked incorrect");
  let samples = List.rev !samples in
  let t = R.tally (warm_oks @ List.map (fun s -> s.out.ok) samples) in
  let correct = t.R.failed = 0 && Array.for_all (fun p -> p >= 2) passes && p90_ok in
  (* quality of result from each input's first passing outcome *)
  let first_out = Hashtbl.create n in
  List.iter
    (fun s -> if s.out.ok && not (Hashtbl.mem first_out s.inp) then Hashtbl.add first_out s.inp s.out)
    samples;
  let qor_values key =
    Hashtbl.fold (fun _ o acc -> match List.assoc_opt key o.qor with Some v -> v :: acc | None -> acc) first_out []
  in
  let geo_or key dflt = match qor_values key with [] -> dflt | l -> R.geomean l in
  let metrics =
    if not traced_run then begin
      let by_input f = List.map (fun s -> (inputs.(s.inp).id, f s)) samples in
      let norms = by_round (fun s -> s.norm) samples and raws = by_round (fun s -> s.raw) samples in
      let p50 = R.round_percentile norms 50.0 and p90 = R.round_percentile norms 90.0 in
      Printf.printf "%s seed=%d: %d inputs, %d items, %d failed, raw set-up %s s\n" w.wname seed n
        t.R.attempted t.R.failed
        (Printf.sprintf "%d x, median %.4f" (List.length setup_raw) (R.median (Array.of_list setup_raw)));
      Printf.printf "  item_norm: geo %.4f  p50 %.4f  p90 %.4f (%d samples beyond%s)\n"
        (R.geo_of_medians (by_input (fun s -> s.norm)))
        p50.R.value p90.R.value p90.R.beyond
        (if p90.R.trusted then "" else ", FEWER THAN 10: p90 untrusted");
      let slowest =
        List.sort (fun (_, a) (_, b) -> Float.compare b a) (R.per_input_medians (by_input (fun s -> s.norm)))
      in
      Printf.printf "  slowest inputs (median ref units): %s\n"
        (String.concat ", "
           (List.map (fun (id, x) -> Printf.sprintf "%s %.2f" id x) (List.filteri (fun i _ -> i < 5) slowest)));
      Printf.printf "  process peak major heap (not gated): %.1f MB; %s\n" (heap_mb (Gc.quick_stat ()).Gc.top_heap_words)
        (try
           In_channel.with_open_text "/proc/self/status" In_channel.input_all
           |> String.split_on_char '\n'
           |> List.find (String.starts_with ~prefix:"VmHWM")
         with _ -> "");
      Printf.printf "  raw item ms (not gated): geo %.3f  p50 %.3f  p90 %.3f\n"
        (1e3 *. R.geo_of_medians (by_input (fun s -> s.raw)))
        (1e3 *. (R.round_percentile raws 50.0).R.value)
        (1e3 *. (R.round_percentile raws 90.0).R.value);
      [
        ("setup_s", "s", setup_s);
        ("item_norm_geo", "ref", R.geo_of_medians (by_input (fun s -> s.norm)));
        ("item_norm_p50", "ref", p50.R.value);
        ("item_norm_p90", "ref", p90.R.value);
        ("ok_frac", "frac", R.ok_frac t);
        ("alloc_mb_geo", "MB", R.geo_of_medians (by_input (fun s -> s.alloc)));
      ]
      @ List.map
          (fun (name, unit, key, agg) ->
            let v =
              match (agg, qor_values key) with
              | _, [] -> 1.0
              | `Geo, l -> R.geomean l
              | `Mean, l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
            in
            (name, unit, v))
          qor_metrics
    end
    else begin
      let items = float_of_int (max 1 !k) in
      let selfs = Spans.self_totals ~keep:(fun it -> it >= 0) in
      let self prefix =
        Hashtbl.fold
          (fun name (t, _) acc ->
            if name = prefix || String.starts_with ~prefix:(prefix ^ ".") name then acc +. t else acc)
          selfs 0.0
      in
      let words layer =
        Hashtbl.fold
          (fun name (_, w) acc ->
            if name = layer || String.starts_with ~prefix:(layer ^ ".") name then acc +. w else acc)
          selfs 0.0
      in
      let per_item c = Spans.counter c /. items in
      let safe_div a b = if b > 0.0 then a /. b else 0.0 in
      let gen_s =
        let setup = Spans.self_totals ~keep:(fun it -> it < 0) in
        safe_div
          (Option.fold ~none:0.0 ~some:fst (Hashtbl.find_opt setup "fuzz.gen"))
          (Spans.counter "fuzz.gen.programs")
      in
      let time name = (name ^ ".self_s", "s", self name /. items) in
      let layers = [ "minic"; "passes"; "ir"; "dswp"; "hls"; "rtsim"; "flows"; "vgen"; "vsim"; "cosim"; "fuzz" ] in
      let m =
        [ time "minic"; time "passes" ]
        @ List.map (fun s -> time ("passes." ^ s)) Pipeline.stage_names
        @ [
            ("passes.ir_insts", "count", per_item "passes.ir_insts");
            time "ir.profile";
            time "dswp";
            ("dswp.queues", "count", per_item "dswp.queues");
            time "hls";
            ("hls.states", "count", per_item "hls.states");
            time "rtsim";
            ("rtsim.sim_cycles", "cycles", per_item "rtsim.sim_cycles");
            ("rtsim.ns_per_sim_cycle", "ns", 1e9 *. safe_div (self "rtsim") (Spans.counter "rtsim.sim_cycles"));
            time "flows.sw";
            time "flows.hw";
            time "vgen";
            ("vgen.verilog_bytes", "B", per_item "vgen.verilog_bytes");
            time "vsim.parse";
            ("vsim.parse.mb_per_s", "MB/s", 1e-6 *. safe_div (Spans.counter "vsim.parse.bytes") (self "vsim.parse"));
            time "vsim.elab";
            time "cosim";
            ("cosim.rtl_cycles", "cycles", per_item "cosim.rtl_cycles");
            ("cosim.us_per_rtl_cycle", "us", 1e6 *. safe_div (self "cosim") (Spans.counter "cosim.rtl_cycles"));
            time "fuzz.ast";
            time "fuzz.interp";
            ("fuzz.rtl_cases", "count", per_item "fuzz.rtl_cases");
            ("fuzz.skips", "count", per_item "fuzz.skips");
            ("fuzz.gen.self_s", "s", gen_s);
            ("qor.design_cycles_geo", "cycles", geo_or "design_cycles" 0.0);
            ("qor.rtl_over_rtsim_geo", "x", geo_or "rtl_over_rtsim" 0.0);
          ]
        @ List.map (fun l -> ("gc.minor_mwords." ^ l, "Mword", 1e-6 *. words l /. items)) layers
        @ [ ("trace.overhead_frac", "frac", safe_div !overhead_num !overhead_den) ]
      in
      Printf.printf "%s seed=%d traced: %d items, %d failed\n" w.wname seed t.R.attempted t.R.failed;
      List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) m;
      m
    end
  in
  print_result ~correct ~attempted:t.R.attempted ~failed:t.R.failed metrics
