(* Pure reducers of the benchmark: everything that turns raw samples into
   reported numbers lives here so the tests can pin it down. *)

(* Host-normalised time: an item's wall time in units of the reference
   computation that ran just before it. *)
let ratio ~item ~reference =
  if reference <= 0.0 then invalid_arg "Reduce.ratio: reference <= 0";
  item /. reference

let sorted (a : float array) =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median (a : float array) =
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.median: empty";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let geomean (l : float list) =
  if l = [] then invalid_arg "Reduce.geomean: empty";
  List.iter (fun x -> if x <= 0.0 then invalid_arg "Reduce.geomean: x <= 0") l;
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(* Per-input medians of [(input, sample)] pairs, in the order each
   input first appears. *)
let per_input_medians (samples : (string * float) list) : (string * float) list =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (id, x) ->
      match Hashtbl.find_opt tbl id with
      | Some l -> l := x :: !l
      | None ->
          Hashtbl.add tbl id (ref [ x ]);
          order := id :: !order)
    samples;
  List.rev_map
    (fun id -> (id, median (Array.of_list !(Hashtbl.find tbl id))))
    !order

(* The headline speed metric: geomean over inputs of each input's
   median sample. *)
let geo_of_medians samples = geomean (List.map snd (per_input_medians samples))

(* Percentile [p] (0 <= p <= 100), linearly interpolated between the
   two closest ranks (Hyndman and Fan's type 7), and the number of
   samples strictly above the upper of those ranks.  A percentile is
   only trusted when at least [min_beyond] samples lie beyond it. *)
let min_beyond = 10

type percentile = { value : float; beyond : int; trusted : bool }

let percentile (a : float array) (p : float) : percentile =
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Reduce.percentile: p";
  let s = sorted a in
  let h = float_of_int (n - 1) *. p /. 100.0 in
  let lo = truncate h in
  let hi = int_of_float (Float.ceil h) in
  let value = s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo))) in
  let beyond = n - 1 - hi in
  { value; beyond; trusted = beyond >= min_beyond }

(* The reported percentile: the median over measurement rounds of each
   round's percentile [p].  A round holds one sample of every input, so
   with few inputs an interpolated percentile of the pooled samples sits
   on the boundary between two inputs' blocks and reads the extremes of
   their noise; a round's percentile reads typical samples.  [beyond]
   counts the samples of the whole run above the result. *)
let round_percentile (rounds : float array list) (p : float) : percentile =
  if rounds = [] then invalid_arg "Reduce.round_percentile: no rounds";
  let value = median (Array.of_list (List.map (fun r -> (percentile r p).value) rounds)) in
  let beyond =
    List.fold_left
      (fun acc r -> Array.fold_left (fun acc x -> if x > value then acc + 1 else acc) acc r)
      0 rounds
  in
  { value; beyond; trusted = beyond >= min_beyond }

(* Failure counting: an item counts as failed when any of its checks
   failed; [ok_frac] is the passing share of the items attempted. *)
type tally = { attempted : int; failed : int }

let tally (oks : bool list) =
  {
    attempted = List.length oks;
    failed = List.length (List.filter not oks);
  }

let ok_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted

(* Seeded input order: an endless sequence of rounds, each a seeded
   permutation of [0, n).  The first index of a round is never the last
   of the previous one (nor [after], the input run just before the
   sequence starts), so no input runs twice in a row and per-domain
   one-entry memos inside the program never serve an item from the item
   before it. *)
let order ?(after = -1) ~seed ~n () : unit -> int =
  if n < 2 then invalid_arg "Reduce.order: fewer than 2 inputs";
  let rst = Random.State.make [| 0x7be7c4; seed; n |] in
  let round = Array.init n Fun.id in
  let pos = ref n and last = ref after in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int rst (i + 1) in
        let t = round.(i) in
        round.(i) <- round.(j);
        round.(j) <- t
      done;
      if round.(0) = !last then begin
        round.(0) <- round.(1);
        round.(1) <- !last
      end;
      pos := 0
    end;
    let i = round.(!pos) in
    incr pos;
    last := i;
    i
