(* In-memory spans for the traced run.  Each span records its name, its
   start and end on the monotonic clock, the span that opened it, the
   item it belongs to (-1 for set-up) and the minor words the domain
   allocated inside it.  Spans are kept in memory and reduced when the
   run ends; the traced code runs on the calling domain only. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  parent : int;  (* index of the enclosing span, -1 at the root *)
  item : int;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

(* Spans are recorded only in the traced run; otherwise [with_span]
   just calls its function. *)
let enabled = ref false
let spans : span list ref = ref []
let nspans = ref 0
let stack : int list ref = ref []
let item = ref (-1)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

(* Seconds spent in spans opened with [~side:true]: side measurements
   that repeat work the program does anyway, left out of the tracing
   overhead. *)
let side_s = ref 0.0

let with_span ?(side = false) name f =
  if not !enabled then f () else
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s =
    { name; parent; item = !item; t0 = now (); t1 = 0.0;
      w0 = Gc.minor_words (); w1 = 0.0 }
  in
  let idx = !nspans in
  spans := s :: !spans;
  incr nspans;
  stack := idx :: !stack;
  Fun.protect f ~finally:(fun () ->
      s.w1 <- Gc.minor_words ();
      s.t1 <- now ();
      if side then side_s := !side_s +. (s.t1 -. s.t0);
      stack := List.tl !stack)

(* Work counters, summed over the run. *)
let count name x =
  Hashtbl.replace counters name
    (x +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* Self time and self minor words per span name: each span's totals
   minus the part its direct children cover.  [keep] selects spans by
   item id. *)
let self_totals ~keep : (string, float * float) Hashtbl.t =
  let a = Array.of_list (List.rev !spans) in
  let child_t = Array.make (Array.length a) 0.0 in
  let child_w = Array.make (Array.length a) 0.0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_t.(s.parent) <- child_t.(s.parent) +. (s.t1 -. s.t0);
        child_w.(s.parent) <- child_w.(s.parent) +. (s.w1 -. s.w0)
      end)
    a;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      if keep s.item then begin
        let t, w = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name
          (t +. (s.t1 -. s.t0) -. child_t.(i), w +. (s.w1 -. s.w0) -. child_w.(i))
      end)
    a;
  tbl
