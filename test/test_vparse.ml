(* Differential tests of the streaming Verilog parser against
   [Vparse_ref], the token-array parser it replaced, kept here as an
   independent reference.  Both must give the same AST (compared as
   marshalled bytes, no sharing) or the same Parse_error message and
   line, on every emitted design and on truncated and mutated ones. *)

open Twill_vsim

type outcome = Ast of string | Error of string * int

let outcome_of parse src =
  match parse src with
  | d -> Ast (Marshal.to_string d [ Marshal.No_sharing ])
  | exception Vparse.Parse_error (msg, line) -> Error (msg, line)
  | exception Vparse_ref.Parse_error (msg, line) -> Error (msg, line)

let describe = function
  | Ast s -> Printf.sprintf "AST (%d bytes)" (String.length s)
  | Error (msg, line) -> Printf.sprintf "Parse_error (%S, %d)" msg line

let check_same ~what src =
  let got = outcome_of Vparse.parse src in
  let want = outcome_of Vparse_ref.parse src in
  if got <> want then
    Alcotest.failf "%s: streaming parser gives %s, reference %s" what
      (describe got) (describe want);
  got

let check_accepts ~what src =
  match check_same ~what src with
  | Ast _ -> ()
  | Error _ as e -> Alcotest.failf "%s rejected: %s" what (describe e)

let opts3 =
  {
    Twill.default_options with
    partition =
      { Twill.Partition.default_config with Twill.Partition.nstages = 3 };
  }

let backends = [ Twill.Schedule.Fsm; Twill.Schedule.Dataflow ]

let designs_of ~opts src =
  let t = Twill.extract ~opts (Twill.compile ~opts src) in
  List.map
    (fun backend ->
      (Twill.Schedule.backend_name backend,
       Twill.Vruntime.emit_design ~backend t))
    backends

(* 8 kernels x FSM/dataflow, emitted once for the whole suite *)
let chstone_designs =
  lazy
    (List.concat_map
       (fun (b : Twill_chstone.Chstone.benchmark) ->
         List.map
           (fun (bk, v) -> (b.Twill_chstone.Chstone.name ^ "/" ^ bk, v))
           (designs_of ~opts:opts3 b.Twill_chstone.Chstone.source))
       Twill_chstone.Chstone.all)

let primitives =
  Twill.Vruntime.
    [
      ("queue", queue_module);
      ("semaphore", semaphore_module);
      ("arbiter", arbiter_module);
      ("hw_interface", hw_interface_module);
      ("scheduler", scheduler_module);
    ]

(* rejected sources, each with the line its diagnostic must name; the
   first ones are the negative cases of the simulator's parser tests *)
let negatives =
  [
    (4, "module m (\n  input wire clk\n);\n  assign = 3;\nendmodule");
    (2, "// header\nmodule (input wire clk);\nendmodule");
    (2, "module m (\n  inout wire clk\n);\nendmodule");
    (2, "module m (output wire y);\n  assign y = 8'q7;\nendmodule");
    (2, "module m (output wire y);\n  assign y = 16'hzz;\nendmodule");
    (2, "module m (output wire y);\n  assign y = 8'");
    (2, "module m (\n  output wire [7:] y\n);\nendmodule");
    (3, "module m (output wire y);\n  reg\n    [:0] t;\nendmodule");
    (* a lexical error later in the source wins over an earlier syntax
       error, as when the whole source was tokenised first *)
    (4, "module m (output wire y);\n  assign = 1;\n\n  assign y = `x;\nendmodule");
    (* end of input reports the last token's line *)
    (1, "module m (output wire y);\n\n\n");
    (2, "module m (input wire a,\n  b");
    (1, "module m (input wire a, b, 3);");
    (2, "module m ();\n  always @(posedge clk) begin x <= 1; end\n");
    (2, "module m ();\n  wire y = 1 ? 2;\nendmodule");
  ]

let ast_tests =
  [
    Alcotest.test_case "same AST on the runtime primitives" `Quick (fun () ->
        List.iter (fun (what, v) -> check_accepts ~what v) primitives;
        check_accepts ~what:"all primitives"
          (String.concat "\n" (List.map snd primitives)));
    Alcotest.test_case "same AST on the 16 CHStone designs" `Quick (fun () ->
        let ds = Lazy.force chstone_designs in
        Alcotest.(check int) "8 kernels x 2 backends" 16 (List.length ds);
        List.iter (fun (what, v) -> check_accepts ~what v) ds);
    Alcotest.test_case "same AST on 200 generated programs, both backends"
      `Quick (fun () ->
        let n = ref 0 in
        for index = 0 to 199 do
          let src =
            Twill_minic.Ast_pp.program_to_string
              (Twill_fuzz.Gen.program ~seed:42 ~index)
          in
          List.iter
            (fun (bk, v) ->
              incr n;
              check_accepts ~what:(Printf.sprintf "case %d/%s" index bk) v)
            (designs_of ~opts:Twill.default_options src)
        done;
        Alcotest.(check int) "designs compared" 400 !n);
  ]

let error_tests =
  [
    Alcotest.test_case "same verdict on 50 truncations of each CHStone design"
      `Quick (fun () ->
        (* offsets drawn up front so the designs can be checked on
           parallel domains with the same cuts *)
        let rst = Random.State.make [| 0x5eed; 13 |] in
        let cuts =
          List.map
            (fun (what, v) ->
              (what, v, List.init 50 (fun _ -> Random.State.int rst (String.length v))))
            (Lazy.force chstone_designs)
        in
        ignore
          (Twill.Par.map
             (fun (what, v, ks) ->
               List.iter
                 (fun k ->
                   ignore
                     (check_same ~what:(Printf.sprintf "%s cut at %d" what k)
                        (String.sub v 0 k)))
                 ks)
             cuts));
    Alcotest.test_case "negative cases keep their message and line" `Quick
      (fun () ->
        List.iter
          (fun (line, src) ->
            match check_same ~what:src src with
            | Error (_, l) -> Alcotest.(check int) src line l
            | Ast _ -> Alcotest.failf "malformed source accepted: %s" src)
          negatives);
    Alcotest.test_case "same outcome on mutated primitives" `Quick (fun () ->
        (* one byte replaced, deleted or duplicated at a seeded offset:
           exercises stray characters, broken literals and every syntax
           error the primitives' grammar can reach *)
        let rst = Random.State.make [| 0x5eed; 14 |] in
        let alphabet = "();,:[]{}=<>!~&|^+-*/%?#@.'0123456789abhsdxX_ \n$`\\" in
        List.iter
          (fun (what, v) ->
            for _ = 1 to 60 do
              let k = Random.State.int rst (String.length v) in
              let c = alphabet.[Random.State.int rst (String.length alphabet)] in
              let pre = String.sub v 0 k
              and post = String.sub v (k + 1) (String.length v - k - 1) in
              let m =
                match Random.State.int rst 3 with
                | 0 -> pre ^ String.make 1 c ^ post
                | 1 -> pre ^ post
                | _ -> pre ^ String.make 2 v.[k] ^ post
              in
              ignore (check_same ~what:(Printf.sprintf "%s mutated at %d" what k) m)
            done)
          primitives);
  ]

let suites = [ ("vparse:ast", ast_tests); ("vparse:errors", error_tests) ]
