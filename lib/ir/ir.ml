(* Twill's SSA intermediate representation.

   Mirrors the LLVM 2.9 subset the thesis works on: 32-bit integer values
   only (the thesis excludes the 64-bit CHStone kernels), a unified
   word-addressed memory space (the thesis's globals-to-arguments pass plus
   write-update coherency give every thread the same flat view), explicit
   phi nodes, and — after DSWP runs — the [Produce]/[Consume] queue
   instructions and semaphore operations of the Twill runtime. *)

type binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor | Shl | Lshr | Ashr

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type operand =
  | Cst of int32
  | Reg of int      (* result of instruction [id] in the enclosing function *)
  | Argv of int     (* function argument index *)
  | Glob of string  (* address of a module global *)

type kind =
  | Binop of binop * operand * operand
  | Icmp of icmp * operand * operand
  | Select of operand * operand * operand
  | Alloca of int                  (* size in 32-bit words; address result *)
  | Gep of operand * operand       (* base address + word index *)
  | Load of operand
  | Store of operand * operand     (* address, value *)
  | Call of string * operand array
  | Phi of (int * operand) list    (* (predecessor block id, incoming) *)
  | Print of operand               (* host I/O builtin, used by self-checks *)
  (* Twill runtime operations, inserted by the DSWP code generator. *)
  | Produce of int * operand       (* queue id, value *)
  | Consume of int                 (* queue id; result is dequeued value *)
  | Sem_give of int * int          (* semaphore id, count *)
  | Sem_take of int * int
  | Dead                           (* tombstone left by transforms *)

type term =
  | Br of int
  | Cond_br of operand * int * int (* condition, then-block, else-block *)
  | Ret of operand option

type inst = {
  id : int;
  mutable kind : kind;
  mutable block : int;             (* owning block id, -1 if detached *)
}

type block = {
  bid : int;
  mutable insts : int list;        (* instruction ids, program order *)
  mutable term : term;
  mutable preds : int list;        (* maintained by [recompute_cfg] *)
}

type func = {
  name : string;
  mutable nparams : int; (* grown by the globals-to-arguments pass *)
  insts : inst Vec.t;
  blocks : block Vec.t;
  mutable entry : int;
}

type global = {
  gname : string;
  size : int;                      (* words *)
  init : int32 array;              (* length <= size; rest zero *)
}

type modul = {
  mutable funcs : func list;
  mutable globals : global list;
}

let find_func m name =
  match List.find_opt (fun f -> f.name = name) m.funcs with
  | Some f -> f
  | None -> failwith ("Ir.find_func: no function " ^ name)

let dummy_inst = { id = -1; kind = Dead; block = -1 }
let dummy_block = { bid = -1; insts = []; term = Ret None; preds = [] }

let create_func ~name ~nparams =
  {
    name;
    nparams;
    insts = Vec.create ~dummy:dummy_inst;
    blocks = Vec.create ~dummy:dummy_block;
    entry = 0;
  }

let add_block f =
  let bid = Vec.length f.blocks in
  let b = { bid; insts = []; term = Ret None; preds = [] } in
  ignore (Vec.push f.blocks b);
  b

let block f bid = Vec.get f.blocks bid
let inst f id = Vec.get f.insts id

(* Creates a detached instruction; the caller appends it to a block. *)
let new_inst f kind =
  let id = Vec.length f.insts in
  let i = { id; kind; block = -1 } in
  ignore (Vec.push f.insts i);
  i

let append_inst f bid kind =
  let i = new_inst f kind in
  let b = block f bid in
  b.insts <- b.insts @ [ i.id ];
  i.block <- bid;
  i.id

let succs_of_term = function
  | Br b -> [ b ]
  | Cond_br (_, b1, b2) -> if b1 = b2 then [ b1 ] else [ b1; b2 ]
  | Ret _ -> []

let succs f bid = succs_of_term (block f bid).term

(* Predecessor lists are built aside and each block's list is stored
   once, so a domain reading [preds] while another recomputes an
   unchanged CFG sees either the old or the new list, both equal, never a
   cleared or half-built one.  Blocks are visited last to first and
   prepended, so each list is in predecessor order; [succs_of_term]
   lists a successor once, so no predecessor repeats. *)
let recompute_cfg f =
  let acc = Array.make (Vec.length f.blocks) [] in
  for p = Vec.length f.blocks - 1 downto 0 do
    let b = block f p in
    List.iter (fun s -> acc.(s) <- b.bid :: acc.(s)) (succs_of_term b.term)
  done;
  Vec.iteri (fun s b -> b.preds <- acc.(s)) f.blocks

(* Operands read by an instruction, in evaluation order. *)
let operands_of_kind = function
  | Binop (_, a, b) | Icmp (_, a, b) | Gep (a, b) | Store (a, b) -> [ a; b ]
  | Select (a, b, c) -> [ a; b; c ]
  | Load a | Print a | Produce (_, a) -> [ a ]
  | Call (_, args) -> Array.to_list args
  | Phi incoming -> List.map snd incoming
  | Alloca _ | Consume _ | Sem_give _ | Sem_take _ | Dead -> []

let operands i = operands_of_kind i.kind

let map_operands_kind g = function
  | Binop (op, a, b) -> Binop (op, g a, g b)
  | Icmp (op, a, b) -> Icmp (op, g a, g b)
  | Select (a, b, c) -> Select (g a, g b, g c)
  | Gep (a, b) -> Gep (g a, g b)
  | Load a -> Load (g a)
  | Store (a, b) -> Store (g a, g b)
  | Call (f, args) -> Call (f, Array.map g args)
  | Phi incoming -> Phi (List.map (fun (p, v) -> (p, g v)) incoming)
  | Print a -> Print (g a)
  | Produce (q, a) -> Produce (q, g a)
  | (Alloca _ | Consume _ | Sem_give _ | Sem_take _ | Dead) as k -> k

(* Deep copy: fresh [inst]/[block] records and fresh operand containers, so
   transforms on the copy (or the original) never alias.  Used by the DSWP
   driver to keep extraction from mutating the caller's module — a
   prerequisite for evaluating independent scenarios in parallel. *)
let copy_func (f : func) : func =
  let copy_inst (i : inst) : inst =
    { id = i.id; kind = map_operands_kind (fun o -> o) i.kind; block = i.block }
  and copy_block (b : block) : block =
    { bid = b.bid; insts = b.insts; term = b.term; preds = b.preds }
  in
  {
    name = f.name;
    nparams = f.nparams;
    insts = Vec.of_list ~dummy:dummy_inst (List.map copy_inst (Vec.to_list f.insts));
    blocks =
      Vec.of_list ~dummy:dummy_block (List.map copy_block (Vec.to_list f.blocks));
    entry = f.entry;
  }

(* Does the instruction define an SSA value usable as [Reg id]? *)
let has_result = function
  | Binop _ | Icmp _ | Select _ | Alloca _ | Gep _ | Load _ | Phi _ | Consume _
    ->
      true
  | Call (_, _) -> true (* void calls simply have no uses *)
  | Store _ | Print _ | Produce _ | Sem_give _ | Sem_take _ | Dead -> false

let is_phi i = match i.kind with Phi _ -> true | _ -> false

let has_side_effect = function
  | Store _ | Call _ | Print _ | Produce _ | Consume _ | Sem_give _
  | Sem_take _ ->
      true
  | Alloca _ -> true (* address identity matters *)
  | Binop ((Sdiv | Udiv | Srem | Urem), _, _) -> false
  (* division by zero traps in the interpreter, but mini-C programs are
     required not to divide by zero, so DCE may drop dead divisions *)
  | Binop _ | Icmp _ | Select _ | Gep _ | Load _ | Phi _ | Dead -> false

let iter_insts f g =
  Vec.iter (fun (b : block) -> List.iter (fun id -> g (inst f id)) b.insts) f.blocks

let fold_insts f g acc =
  let acc = ref acc in
  iter_insts f (fun i -> acc := g !acc i);
  !acc

let num_live_insts f = fold_insts f (fun n _ -> n + 1) 0

(* Replaces every use of [Reg old_id] with [by] across the function. *)
let replace_all_uses f ~old_id ~by =
  let g o = match o with Reg r when r = old_id -> by | _ -> o in
  Vec.iter
    (fun i -> if i.kind <> Dead then i.kind <- map_operands_kind g i.kind)
    f.insts;
  Vec.iter
    (fun b ->
      match b.term with
      | Cond_br (c, b1, b2) -> b.term <- Cond_br (g c, b1, b2)
      | Ret (Some v) -> b.term <- Ret (Some (g v))
      | Br _ | Ret None -> ())
    f.blocks

let remove_inst f id =
  let i = inst f id in
  if i.block >= 0 then begin
    let b = block f i.block in
    b.insts <- List.filter (fun x -> x <> id) b.insts
  end;
  i.block <- -1;
  i.kind <- Dead

(* Rewrites phi incoming-block references when an edge is redirected. *)
let rewrite_phi_pred f ~bid ~old_pred ~new_pred =
  List.iter
    (fun id ->
      let i = inst f id in
      match i.kind with
      | Phi incoming ->
          i.kind <-
            Phi
              (List.map
                 (fun (p, v) -> if p = old_pred then (new_pred, v) else (p, v))
                 incoming)
      | _ -> ())
    (block f bid).insts

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Udiv -> "udiv" | Srem -> "srem" | Urem -> "urem" | And -> "and"
  | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let icmp_name = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt"
  | Sge -> "sge" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"
