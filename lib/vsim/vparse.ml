(* Lexer and recursive-descent parser for the emitted Verilog subset.
   The grammar mirrors what Vemit/Vruntime print — ANSI module headers,
   reg/wire declarations (with vectors and memories), assign, single-clock
   always blocks, if/case/for, and named-port instantiation with parameter
   overrides.  Everything else is a Parse_error with a line number.

   The lexer is streamed: the parser holds exactly one current token in
   its mutable state and [advance] scans the next one on demand, so no
   token list or array is built.  Tokens are unboxed into the state's
   fields (kind, symbol code, identifier span, literal value), so looking
   at or consuming a token allocates nothing; an identifier is copied out
   of the source only when the parser keeps it. *)

exception Parse_error of string * int

type expr =
  | Num of int * int * bool
  | Id of string
  | Index of string * expr
  | Unop of string * expr
  | Binop of string * expr * expr
  | Ternary of expr * expr * expr
  | Concat of expr list
  | Sysfun of string * expr

type lval = { base : string; index : expr option; lline : int }

type stmt =
  | Block of stmt list
  | If of expr * stmt * stmt option
  | Case of expr * (expr list * stmt) list * stmt option
  | For of lval * expr * expr * lval * expr * stmt
  | Assign of lval * bool * expr

type net_kind = Wire | Reg | Integer
type port_dir = In | Out | Local

type decl = {
  dname : string;
  dsigned : bool;
  drange : (expr * expr) option;
  darray : (expr * expr) option;
  dkind : net_kind;
  dport : port_dir;
  dline : int;
}

type item =
  | Decl of decl
  | Param of string * expr
  | Cassign of lval * expr
  | Always of string * stmt
  | Instance of {
      imod : string;
      iname : string;
      iparams : (string * expr) list;
      iports : (string * expr option) list;
      iline : int;
    }

type modul = {
  mname : string;
  mparams : (string * expr) list;
  mitems : item list;
  mline : int;
}

type design = modul list

(* --- tokens -------------------------------------------------------------- *)

(* token kinds *)
let k_eof = 0
let k_id = 1
let k_num = 2
let k_sym = 3

(* symbol codes index [sym_name], which spells them, and [prec], which
   ranks the binary operators (0 = not one); only the codes the parser
   names are bound *)
let s_lparen = 0
let s_rparen = 1
let s_lbrack = 2
let s_rbrack = 3
let s_lbrace = 4
let s_rbrace = 5
let s_hash = 6
let s_at = 7
let s_dot = 8
let s_comma = 9
let s_semi = 10
let s_colon = 11
let s_quest = 12
let s_assign = 13
let s_bang = 14
let s_tilde = 15
let s_lor = 16
let s_land = 17
let s_eq = 21
let s_ne = 22
let s_le = 24
let s_ge = 26
let s_shl = 27
let s_shr = 28
let s_ashr = 29
let s_minus = 31

let sym_name =
  [| "("; ")"; "["; "]"; "{"; "}"; "#"; "@"; "."; ","; ";"; ":"; "?"; "=";
     "!"; "~"; "||"; "&&"; "|"; "^"; "&"; "=="; "!="; "<"; "<="; ">"; ">=";
     "<<"; ">>"; ">>>"; "+"; "-"; "*"; "/"; "%" |]

let prec =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 2; 3; 4; 5; 6; 6;
     7; 7; 7; 7; 8; 8; 8; 9; 9; 10; 10; 10 |]

(* --- lexer --------------------------------------------------------------- *)

type st = {
  src : string;
  n : int;
  mutable i : int;  (** scan offset, just past the current token *)
  mutable line : int;  (** line at [i] *)
  mutable kind : int;  (** current token *)
  mutable tline : int;  (** its line; at end of input, the last token's *)
  mutable sym : int;
  mutable id_off : int;
  mutable id_len : int;
  mutable num_v : int;
  mutable num_w : int;
  mutable num_s : bool;
}

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* reads [0-9a-fA-F_]+ in the given base, returns the value *)
let digits_of st base =
  let src = st.src and n = st.n in
  let v = ref 0 in
  let any = ref false in
  let ok = ref true in
  while
    !ok && st.i < n
    &&
    let c = src.[st.i] in
    is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c = '_'
  do
    let c = src.[st.i] in
    if c = '_' then st.i <- st.i + 1
    else begin
      let d =
        if is_digit c then Char.code c - Char.code '0'
        else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
        else Char.code c - Char.code 'A' + 10
      in
      if d >= base then ok := false
      else begin
        v := (!v * base) + d;
        any := true;
        st.i <- st.i + 1
      end
    end
  done;
  if not !any then raise (Parse_error ("malformed numeric literal", st.line));
  !v

let lex_number st =
  let src = st.src and n = st.n in
  let v = digits_of st 10 in
  if st.i < n && src.[st.i] = '\'' then begin
    (* sized literal: <width>'[s]<base><digits>, possibly negative *)
    st.i <- st.i + 1;
    let signed = st.i < n && (src.[st.i] = 's' || src.[st.i] = 'S') in
    if signed then st.i <- st.i + 1;
    let base =
      if st.i >= n then raise (Parse_error ("truncated literal", st.line))
      else
        match src.[st.i] with
        | 'b' | 'B' -> 2
        | 'o' | 'O' -> 8
        | 'd' | 'D' -> 10
        | 'h' | 'H' -> 16
        | c ->
            raise
              (Parse_error (Printf.sprintf "bad literal base '%c'" c, st.line))
    in
    st.i <- st.i + 1;
    let neg = st.i < n && src.[st.i] = '-' in
    if neg then st.i <- st.i + 1;
    let mag = digits_of st base in
    st.num_v <- (if neg then -mag else mag);
    st.num_w <- v;
    st.num_s <- signed
  end
  else begin
    st.num_v <- v;
    st.num_w <- 0;
    st.num_s <- true
  end

(* one-character symbols by character code, -1 elsewhere *)
let single_sym =
  let t = Array.make 256 (-1) in
  Array.iteri
    (fun code s -> if String.length s = 1 then t.(Char.code s.[0]) <- code)
    sym_name;
  t

let two_sym c c1 =
  match (c, c1) with
  | '<', '=' -> s_le
  | '>', '=' -> s_ge
  | '=', '=' -> s_eq
  | '!', '=' -> s_ne
  | '&', '&' -> s_land
  | '|', '|' -> s_lor
  | '<', '<' -> s_shl
  | '>', '>' -> s_shr
  | _ -> -1

let lex_sym st c =
  let src = st.src and n = st.n and i = st.i in
  if c = '>' && i + 2 < n && src.[i + 1] = '>' && src.[i + 2] = '>' then begin
    st.sym <- s_ashr;
    st.i <- i + 3
  end
  else
    let two = if i + 1 < n then two_sym c src.[i + 1] else -1 in
    if two >= 0 then begin
      st.sym <- two;
      st.i <- i + 2
    end
    else
      let one = single_sym.(Char.code c) in
      if one >= 0 then begin
        st.sym <- one;
        st.i <- i + 1
      end
      else
        raise (Parse_error (Printf.sprintf "stray character '%c'" c, st.line))

(* Scans the next token into [st], skipping blanks and comments. *)
let rec advance st =
  let src = st.src and n = st.n in
  if st.i >= n then st.kind <- k_eof
  else
    let c = src.[st.i] in
    if c = '\n' then begin
      st.line <- st.line + 1;
      st.i <- st.i + 1;
      advance st
    end
    else if c = ' ' || c = '\t' || c = '\r' then begin
      st.i <- st.i + 1;
      advance st
    end
    else if c = '/' && st.i + 1 < n && src.[st.i + 1] = '/' then begin
      while st.i < n && src.[st.i] <> '\n' do
        st.i <- st.i + 1
      done;
      advance st
    end
    else if c = '/' && st.i + 1 < n && src.[st.i + 1] = '*' then begin
      st.i <- st.i + 2;
      while st.i + 1 < n && not (src.[st.i] = '*' && src.[st.i + 1] = '/') do
        if src.[st.i] = '\n' then st.line <- st.line + 1;
        st.i <- st.i + 1
      done;
      st.i <- st.i + 2;
      advance st
    end
    else begin
      st.tline <- st.line;
      if is_ident_start c then begin
        let start = st.i in
        while st.i < n && is_ident_char src.[st.i] do
          st.i <- st.i + 1
        done;
        st.id_off <- start;
        st.id_len <- st.i - start;
        st.kind <- k_id
      end
      else if is_digit c then begin
        lex_number st;
        st.kind <- k_num
      end
      else begin
        lex_sym st c;
        st.kind <- k_sym
      end
    end

(* --- parser -------------------------------------------------------------- *)

(* A lexical error anywhere in the source wins over a syntax error, as it
   would if the whole source were tokenised before parsing: the rest of
   the input is scanned before the syntax error is raised. *)
let fail st msg =
  let line = st.tline in
  while st.kind <> k_eof do
    advance st
  done;
  raise (Parse_error (msg, line))

let fail_at st msg =
  if st.kind = k_eof then fail st "unexpected end of input" else fail st msg

let at_sym st s = st.kind = k_sym && st.sym = s

let rec same_from src off k j =
  j = String.length k
  || (String.unsafe_get src (off + j) = String.unsafe_get k j
     && same_from src off k (j + 1))

(* compares the identifier in place: no substring is made *)
let at_kw st k =
  st.kind = k_id && st.id_len = String.length k && same_from st.src st.id_off k 0

let eat_sym st s =
  if at_sym st s then advance st
  else fail_at st (Printf.sprintf "expected '%s'" sym_name.(s))

let eat_kw st k =
  if at_kw st k then advance st else fail_at st (Printf.sprintf "expected '%s'" k)

let ident st =
  if st.kind = k_id then begin
    let s = String.sub st.src st.id_off st.id_len in
    advance st;
    s
  end
  else fail_at st "expected identifier"

(* Whether the token after the current one is ')', ',' or the end of
   input.  Scans it on a copy of the state. *)
let next_closes_list st =
  let la = { st with i = st.i } in
  advance la;
  la.kind = k_eof || (la.kind = k_sym && (la.sym = s_rparen || la.sym = s_comma))

(* expression precedence climbing: every binary operator is
   left-associative, [prec] ranks them from '||' (1) to '*' (10) *)
let rec expr st =
  let c = binary st 1 in
  if at_sym st s_quest then begin
    advance st;
    let a = expr st in
    eat_sym st s_colon;
    let b = expr st in
    Ternary (c, a, b)
  end
  else c

and binary st min =
  let a = ref (unary st) in
  while st.kind = k_sym && prec.(st.sym) >= min do
    let op = st.sym in
    advance st;
    a := Binop (sym_name.(op), !a, binary st (prec.(op) + 1))
  done;
  !a

and unary st =
  if
    st.kind = k_sym
    && (st.sym = s_minus || st.sym = s_bang || st.sym = s_tilde)
  then begin
    let op = st.sym in
    advance st;
    Unop (sym_name.(op), unary st)
  end
  else primary st

and primary st =
  if st.kind = k_num then begin
    let e = Num (st.num_v, st.num_w, st.num_s) in
    advance st;
    e
  end
  else if at_sym st s_lparen then begin
    advance st;
    let e = expr st in
    eat_sym st s_rparen;
    e
  end
  else if at_sym st s_lbrace then begin
    advance st;
    let rec go acc =
      let e = expr st in
      if at_sym st s_comma then begin
        advance st;
        go (e :: acc)
      end
      else begin
        eat_sym st s_rbrace;
        List.rev (e :: acc)
      end
    in
    Concat (go [])
  end
  else if st.kind = k_id then begin
    let x = ident st in
    if x.[0] = '$' then begin
      eat_sym st s_lparen;
      let e = expr st in
      eat_sym st s_rparen;
      Sysfun (x, e)
    end
    else if at_sym st s_lbrack then begin
      advance st;
      let e = expr st in
      eat_sym st s_rbrack;
      Index (x, e)
    end
    else Id x
  end
  else fail_at st "expected expression"

(* case labels must not swallow the arm's ':' — stop below the ternary *)
let label_expr st = binary st 1

let lvalue st =
  let lline = st.tline in
  let base = ident st in
  if at_sym st s_lbrack then begin
    advance st;
    let e = expr st in
    eat_sym st s_rbrack;
    { base; index = Some e; lline }
  end
  else { base; index = None; lline }

let assignment st lv =
  (* lv already consumed; parse ('='|'<=') rhs ';' *)
  let nonblocking =
    if at_sym st s_assign then false
    else if at_sym st s_le then true
    else fail_at st "expected '=' or '<='"
  in
  advance st;
  let rhs = expr st in
  eat_sym st s_semi;
  Assign (lv, nonblocking, rhs)

let rec stmt st =
  if at_kw st "begin" then begin
    advance st;
    let acc = ref [] in
    while not (at_kw st "end") do
      acc := stmt st :: !acc
    done;
    eat_kw st "end";
    Block (List.rev !acc)
  end
  else if at_kw st "if" then begin
    advance st;
    eat_sym st s_lparen;
    let c = expr st in
    eat_sym st s_rparen;
    let t = stmt st in
    if at_kw st "else" then begin
      advance st;
      If (c, t, Some (stmt st))
    end
    else If (c, t, None)
  end
  else if at_kw st "case" then begin
    advance st;
    eat_sym st s_lparen;
    let scrut = expr st in
    eat_sym st s_rparen;
    let arms = ref [] in
    let default = ref None in
    while not (at_kw st "endcase") do
      if at_kw st "default" then begin
        advance st;
        eat_sym st s_colon;
        default := Some (stmt st)
      end
      else begin
        let rec labels acc =
          let l = label_expr st in
          if at_sym st s_comma then begin
            advance st;
            labels (l :: acc)
          end
          else List.rev (l :: acc)
        in
        let ls = labels [] in
        eat_sym st s_colon;
        arms := (ls, stmt st) :: !arms
      end
    done;
    eat_kw st "endcase";
    Case (scrut, List.rev !arms, !default)
  end
  else if at_kw st "for" then begin
    advance st;
    eat_sym st s_lparen;
    let ilv = lvalue st in
    eat_sym st s_assign;
    let ie = expr st in
    eat_sym st s_semi;
    let cond = expr st in
    eat_sym st s_semi;
    let slv = lvalue st in
    eat_sym st s_assign;
    let se = expr st in
    eat_sym st s_rparen;
    For (ilv, ie, cond, slv, se, stmt st)
  end
  else if st.kind = k_id then assignment st (lvalue st)
  else fail st "expected statement"

(* one declaration's attributes applied to a comma list of names *)
let decl_names st ~dkind ~dport ~dsigned ~drange =
  let rec go acc =
    let dline = st.tline in
    let dname = ident st in
    let darray =
      if at_sym st s_lbrack then begin
        advance st;
        let a = expr st in
        eat_sym st s_colon;
        let b = expr st in
        eat_sym st s_rbrack;
        Some (a, b)
      end
      else None
    in
    let d = { dname; dsigned; drange; darray; dkind; dport; dline } in
    if at_sym st s_comma then begin
      advance st;
      go (d :: acc)
    end
    else List.rev (d :: acc)
  in
  go []

let opt_signed st =
  if at_kw st "signed" then begin
    advance st;
    true
  end
  else false

let opt_range st =
  if at_sym st s_lbrack then begin
    advance st;
    let a = expr st in
    eat_sym st s_colon;
    let b = expr st in
    eat_sym st s_rbrack;
    Some (a, b)
  end
  else None

(* optional net kind after a port direction; plain ports are wires *)
let opt_kind st =
  if at_kw st "wire" then (
    advance st;
    Wire)
  else if at_kw st "reg" then (
    advance st;
    Reg)
  else Wire

(* header port declaration: (input|output) [wire|reg] [signed] [range] name *)
let port_decl st =
  let dport =
    if at_kw st "input" then In
    else if at_kw st "output" then Out
    else fail_at st "expected 'input' or 'output'"
  in
  advance st;
  let dkind = opt_kind st in
  let dsigned = opt_signed st in
  let drange = opt_range st in
  let dline = st.tline in
  let dname = ident st in
  { dname; dsigned; drange; darray = None; dkind; dport; dline }

let param_binding st =
  eat_kw st "parameter";
  let name = ident st in
  eat_sym st s_assign;
  (name, expr st)

let instance st imod iline =
  let iparams =
    if at_sym st s_hash then begin
      advance st;
      eat_sym st s_lparen;
      let rec go acc =
        eat_sym st s_dot;
        let p = ident st in
        eat_sym st s_lparen;
        let e = expr st in
        eat_sym st s_rparen;
        if at_sym st s_comma then begin
          advance st;
          go ((p, e) :: acc)
        end
        else begin
          eat_sym st s_rparen;
          List.rev ((p, e) :: acc)
        end
      in
      go []
    end
    else []
  in
  let iname = ident st in
  eat_sym st s_lparen;
  let rec go acc =
    eat_sym st s_dot;
    let p = ident st in
    eat_sym st s_lparen;
    let e = if at_sym st s_rparen then None else Some (expr st) in
    eat_sym st s_rparen;
    if at_sym st s_comma then begin
      advance st;
      go ((p, e) :: acc)
    end
    else begin
      eat_sym st s_rparen;
      List.rev ((p, e) :: acc)
    end
  in
  let iports = go [] in
  eat_sym st s_semi;
  Instance { imod; iname; iparams; iports; iline }

let item st : item list =
  let l = st.tline in
  if at_kw st "integer" then begin
    advance st;
    let ds =
      decl_names st ~dkind:Integer ~dport:Local ~dsigned:true ~drange:None
    in
    eat_sym st s_semi;
    List.map (fun d -> Decl d) ds
  end
  else if at_kw st "wire" || at_kw st "reg" then begin
    let dkind = if at_kw st "reg" then Reg else Wire in
    advance st;
    let dsigned = opt_signed st in
    let drange = opt_range st in
    let ds = decl_names st ~dkind ~dport:Local ~dsigned ~drange in
    eat_sym st s_semi;
    List.map (fun d -> Decl d) ds
  end
  else if at_kw st "input" || at_kw st "output" then begin
    let dport = if at_kw st "input" then In else Out in
    advance st;
    let dkind = opt_kind st in
    let dsigned = opt_signed st in
    let drange = opt_range st in
    let ds = decl_names st ~dkind ~dport ~dsigned ~drange in
    eat_sym st s_semi;
    List.map (fun d -> Decl d) ds
  end
  else if at_kw st "parameter" || at_kw st "localparam" then begin
    advance st;
    let rec go acc =
      let name = ident st in
      eat_sym st s_assign;
      let e = expr st in
      if at_sym st s_comma then begin
        advance st;
        go ((name, e) :: acc)
      end
      else begin
        eat_sym st s_semi;
        List.rev ((name, e) :: acc)
      end
    in
    List.map (fun (n, e) -> Param (n, e)) (go [])
  end
  else if at_kw st "assign" then begin
    advance st;
    let lv = lvalue st in
    eat_sym st s_assign;
    let e = expr st in
    eat_sym st s_semi;
    [ Cassign (lv, e) ]
  end
  else if at_kw st "always" then begin
    advance st;
    eat_sym st s_at;
    eat_sym st s_lparen;
    eat_kw st "posedge";
    let clk = ident st in
    eat_sym st s_rparen;
    [ Always (clk, stmt st) ]
  end
  else if st.kind = k_id then [ instance st (ident st) l ]
  else fail st "expected module item"

let modul st =
  let mline = st.tline in
  eat_kw st "module";
  let mname = ident st in
  let mparams =
    if at_sym st s_hash then begin
      advance st;
      eat_sym st s_lparen;
      let rec go acc =
        let p = param_binding st in
        if at_sym st s_comma then begin
          advance st;
          go (p :: acc)
        end
        else begin
          eat_sym st s_rparen;
          List.rev (p :: acc)
        end
      in
      go []
    end
    else []
  in
  let ports = ref [] in
  let at_dir () = at_kw st "input" || at_kw st "output" in
  if at_sym st s_lparen then begin
    advance st;
    if at_sym st s_rparen then advance st
    else begin
      let rec go () =
        ports := port_decl st :: !ports;
        if at_sym st s_comma then begin
          advance st;
          (* a bare name continues the previous declaration's attributes *)
          if at_dir () then go ()
          else if st.kind = k_id && next_closes_list st then begin
            let n = ident st in
            (match !ports with
            | p :: _ -> ports := { p with dname = n } :: !ports
            | [] -> fail st "port list cannot start with a bare name");
            if at_sym st s_comma then go_bare ()
          end
          else go ()
        end
      and go_bare () =
        advance st;
        if at_dir () then go ()
        else if st.kind = k_id then begin
          let n = ident st in
          (match !ports with
          | p :: _ -> ports := { p with dname = n } :: !ports
          | [] -> ());
          if at_sym st s_comma then go_bare ()
        end
        else fail st "expected port declaration"
      in
      go ();
      eat_sym st s_rparen
    end
  end;
  eat_sym st s_semi;
  let items = ref (List.rev_map (fun d -> Decl d) !ports) in
  while not (at_kw st "endmodule") do
    items := List.rev_append (item st) !items
  done;
  eat_kw st "endmodule";
  { mname; mparams; mitems = List.rev !items; mline }

let parse (src : string) : design =
  let st =
    {
      src;
      n = String.length src;
      i = 0;
      line = 1;
      kind = k_eof;
      tline = 1;
      sym = 0;
      id_off = 0;
      id_len = 0;
      num_v = 0;
      num_w = 0;
      num_s = false;
    }
  in
  advance st;
  let mods = ref [] in
  while st.kind <> k_eof do
    mods := modul st :: !mods
  done;
  List.rev !mods

let find_module (d : design) (name : string) : modul =
  List.find (fun m -> m.mname = name) d
