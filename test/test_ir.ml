(* IR-level unit tests: arithmetic semantics, the structural verifier,
   layout, and the printer. *)

open Twill_ir
module Vec = Twill_ir.Vec

let check_i32 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%ld" v) Int32.equal

let arith_tests =
  [
    Alcotest.test_case "wraparound arithmetic" `Quick (fun () ->
        Alcotest.(check check_i32) "max+1" Int32.min_int
          (Interp.eval_binop Ir.Add Int32.max_int 1l);
        Alcotest.(check check_i32) "min-1" Int32.max_int
          (Interp.eval_binop Ir.Sub Int32.min_int 1l);
        Alcotest.(check check_i32) "mul wrap" 0l
          (Interp.eval_binop Ir.Mul 65536l 65536l));
    Alcotest.test_case "division semantics" `Quick (fun () ->
        Alcotest.(check check_i32) "trunc" (-2l) (Interp.eval_binop Ir.Sdiv (-7l) 3l);
        Alcotest.(check check_i32) "rem sign" (-1l) (Interp.eval_binop Ir.Srem (-7l) 3l);
        Alcotest.(check check_i32) "udiv" 2147483647l
          (Interp.eval_binop Ir.Udiv (-2l) 2l);
        (match Interp.eval_binop Ir.Sdiv 1l 0l with
        | exception Interp.Trap _ -> ()
        | _ -> Alcotest.fail "sdiv by zero must trap");
        match Interp.eval_binop Ir.Urem 1l 0l with
        | exception Interp.Trap _ -> ()
        | _ -> Alcotest.fail "urem by zero must trap");
    Alcotest.test_case "shift masking" `Quick (fun () ->
        Alcotest.(check check_i32) "<< 33 == << 1" 2l
          (Interp.eval_binop Ir.Shl 1l 33l);
        Alcotest.(check check_i32) "lshr" 1l
          (Interp.eval_binop Ir.Lshr Int32.min_int 31l);
        Alcotest.(check check_i32) "ashr" (-1l)
          (Interp.eval_binop Ir.Ashr Int32.min_int 31l));
    Alcotest.test_case "unsigned comparisons" `Quick (fun () ->
        Alcotest.(check check_i32) "-1 >u 1" 1l (Interp.eval_icmp Ir.Ugt (-1l) 1l);
        Alcotest.(check check_i32) "-1 <s 1" 1l (Interp.eval_icmp Ir.Slt (-1l) 1l));
  ]

(* a tiny hand-built valid function: return arg0 + 1 *)
let mk_inc () =
  let open Ir in
  let f = create_func ~name:"main" ~nparams:0 in
  let b = add_block f in
  f.entry <- b.bid;
  let add = append_inst f b.bid (Binop (Add, Cst 41l, Cst 1l)) in
  b.term <- Ret (Some (Reg add));
  recompute_cfg f;
  f

let verify_tests =
  [
    Alcotest.test_case "valid module passes" `Quick (fun () ->
        let m = { Ir.funcs = [ mk_inc () ]; globals = [] } in
        Verify.check_modul m;
        Alcotest.(check check_i32) "runs" 42l (Interp.run m).Interp.ret);
    Alcotest.test_case "use of value-less instruction rejected" `Quick
      (fun () ->
        let open Ir in
        let f = create_func ~name:"main" ~nparams:0 in
        let b = add_block f in
        f.entry <- b.bid;
        let st = append_inst f b.bid (Store (Cst 20l, Cst 1l)) in
        b.term <- Ret (Some (Reg st));
        let m = { funcs = [ f ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "store has no result");
    Alcotest.test_case "phi incoming must match predecessors" `Quick (fun () ->
        let open Ir in
        let f = create_func ~name:"main" ~nparams:0 in
        let b0 = add_block f and b1 = add_block f in
        f.entry <- b0.bid;
        b0.term <- Br b1.bid;
        let p = append_inst f b1.bid (Phi [ (99, Cst 1l) ]) in
        b1.term <- Ret (Some (Reg p));
        let m = { funcs = [ f ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "bogus phi accepted");
    Alcotest.test_case "branch to unknown block rejected" `Quick (fun () ->
        let open Ir in
        let f = create_func ~name:"main" ~nparams:0 in
        let b = add_block f in
        f.entry <- b.bid;
        b.term <- Br 7;
        let m = { funcs = [ f ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "dangling branch accepted");
    Alcotest.test_case "call arity checked" `Quick (fun () ->
        let open Ir in
        let callee = create_func ~name:"f" ~nparams:2 in
        let cb = add_block callee in
        callee.entry <- cb.bid;
        cb.term <- Ret (Some (Cst 0l));
        let f = create_func ~name:"main" ~nparams:0 in
        let b = add_block f in
        f.entry <- b.bid;
        let c = append_inst f b.bid (Call ("f", [| Cst 1l |])) in
        b.term <- Ret (Some (Reg c));
        let m = { funcs = [ f; callee ]; globals = [] } in
        match Verify.check_modul m with
        | exception Verify.Invalid _ -> ()
        | () -> Alcotest.fail "arity mismatch accepted");
  ]

let layout_tests =
  [
    Alcotest.test_case "globals are laid out disjointly" `Quick (fun () ->
        let m =
          {
            Ir.funcs = [ mk_inc () ];
            globals =
              [
                { Ir.gname = "a"; size = 10; init = [||] };
                { Ir.gname = "b"; size = 5; init = [| 7l |] };
              ];
          }
        in
        let l = Layout.build m in
        let a = Int32.to_int (Layout.global_address l "a") in
        let b = Int32.to_int (Layout.global_address l "b") in
        Alcotest.(check bool) "above the reserved words" true
          (a >= Layout.base_addr);
        Alcotest.(check bool) "disjoint" true (b >= a + 10 || a >= b + 5);
        Alcotest.(check int) "words used" (Layout.base_addr + 15) l.Layout.words_used);
    Alcotest.test_case "memory image initialised" `Quick (fun () ->
        let m =
          {
            Ir.funcs = [ mk_inc () ];
            globals = [ { Ir.gname = "g"; size = 3; init = [| 1l; 2l |] } ];
          }
        in
        let l = Layout.build m in
        let mem = Array.make 64 9l in
        Layout.init_memory l m mem;
        let base = Int32.to_int (Layout.global_address l "g") in
        Alcotest.(check check_i32) "g[0]" 1l mem.(base);
        Alcotest.(check check_i32) "g[1]" 2l mem.(base + 1));
  ]

let printer_tests =
  [
    Alcotest.test_case "printer mentions every construct" `Quick (fun () ->
        let m =
          Twill_minic.Minic.compile
            "int g[2];\nint main() { g[0] = 3; int x = g[0] * 2; if (x > 4) \
             return x; return g[1]; }"
        in
        let s = Printer.modul_to_string m in
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true
              (let re = Str.regexp_string needle in
               try ignore (Str.search_forward re s 0); true
               with Not_found -> false))
          [ "global @g"; "func @main"; "store"; "load"; "mul"; "icmp"; "ret" ]);
  ]

(* [recompute_cfg] on a CFG that does not change must never let a
   concurrent reader see a reachable non-entry block without
   predecessors: the flows of [Twill.evaluate] run on parallel domains
   over one module, and [Pdg.build] recomputes its [main]'s CFG. *)
let cfg_tests =
  [
    Alcotest.test_case "preds stay whole while two domains recompute them"
      `Quick (fun () ->
        let m = Twill.compile (Twill_chstone.Chstone.find "jpeg").source in
        let f = Ir.find_func m "main" in
        Ir.recompute_cfg f;
        let n = Vec.length f.Ir.blocks in
        let reach = Array.make n false in
        let rec visit b =
          if not reach.(b) then begin
            reach.(b) <- true;
            List.iter visit (Ir.succs f b)
          end
        in
        visit f.Ir.entry;
        let watched =
          List.filter
            (fun b -> reach.(b) && b <> f.Ir.entry)
            (List.init n Fun.id)
        in
        Alcotest.(check bool) "blocks to watch" true (List.length watched > 10);
        (* the reader makes a fixed number of passes; the writers
           recompute until it is done *)
        let stop = Atomic.make false in
        let writer () =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                Ir.recompute_cfg f
              done)
        in
        let w1 = writer () and w2 = writer () in
        let bad = ref 0 in
        for _ = 1 to 20_000 do
          List.iter
            (fun b -> if (Ir.block f b).Ir.preds = [] then incr bad)
            watched
        done;
        Atomic.set stop true;
        Domain.join w1;
        Domain.join w2;
        let bad = !bad in
        Alcotest.(check int) "empty preds seen" 0 bad);
  ]

let suites =
  [
    ("ir:arith", arith_tests);
    ("ir:cfg", cfg_tests);
    ("ir:verify", verify_tests);
    ("ir:layout", layout_tests);
    ("ir:printer", printer_tests);
  ]
