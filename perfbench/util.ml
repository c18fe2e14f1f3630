(* Shared helpers for the benchmark: wall clock, exact order
   statistics, a cheap seeded PRNG for input generation, heap
   counters and the metric record every workload returns. *)

let wall () = Unix.gettimeofday ()

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(* --- exact order statistics over raw samples ------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. No bucketing, no interpolation. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Mean of the last tenth of a series over the mean of its first
   tenth: 1.0 for a cost that does not grow with history. *)
let growth a =
  let n = Array.length a in
  let k = max 1 (n / 10) in
  if n < 2 then nan
  else mean (Array.sub a (n - k) k) /. mean (Array.sub a 0 k)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Median wall seconds per call of [f]: calls are grouped into batches
   long enough (>= 2 ms) for the clock to resolve, and the median
   batch is reported. *)
let per_call ?(batches = 11) f =
  let rec size k =
    let _, dt = timed (fun () -> for _ = 1 to k do f () done) in
    if dt >= 0.002 || k >= 1 lsl 20 then k else size (k * 2)
  in
  let k = size 1 in
  median
    (Array.init batches (fun _ ->
         let _, dt = timed (fun () -> for _ = 1 to k do f () done) in
         dt /. float_of_int k))

(* --- seeded input generation ------------------------------------------ *)

(* splitmix64: the inputs (file contents, sizes, op targets) come from
   the benchmark's own generator, so generating them costs nothing
   measurable and the program under test only ever sees the data. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))
end

(* C-looking text of about [size] bytes, so [wc] counts are plausible. *)
let source_text rng size =
  let buf = Buffer.create (size + 80) in
  Buffer.add_string buf "/* synthetic kernel source */\n#include <sys/param.h>\n";
  let i = ref 0 in
  while Buffer.length buf < size do
    incr i;
    (match Rng.int rng 4 with
    | 0 -> Printf.bprintf buf "int var_%d = %d;\n" !i (Rng.int rng 4096)
    | 1 ->
      Printf.bprintf buf "static void fn_%d(struct proc *p) { p->p_flag |= %d; }\n" !i
        (Rng.int rng 256)
    | 2 -> Printf.bprintf buf "#define FLAG_%d 0x%04x\n" !i (Rng.int rng 65536)
    | _ -> Buffer.add_string buf "/* XXX revisit locking here */\n")
  done;
  Buffer.contents buf

(* The same counting rule as the fig-12 script's wc. *)
let wc data =
  let lines = ref 0 and words = ref 0 and in_word = ref false in
  String.iter
    (fun c ->
      if c = '\n' then incr lines;
      if c = ' ' || c = '\t' || c = '\n' then in_word := false
      else if not !in_word then begin
        in_word := true;
        incr words
      end)
    data;
  (!lines, !words, String.length data)

(* --- heap counters ------------------------------------------------------ *)

let allocated () = Gc.allocated_bytes ()
let heap_peak_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- results -------------------------------------------------------------- *)

(* The end-to-end figures of one workload run. The virtual ones come
   from a fixed amount of deterministic work, so a traced and an
   untraced run must agree on them exactly. *)
type virt = {
  v_ops_per_s : float;
  v_p50_ms : float;
  v_p99_ms : float;
  v_samples : int;
  v_knee_ops_s : float;
  v_ok_ratio : float;
}

let slo_p99_ms = 100.0

(* The virtual figures of a closed loop with one principal. It offers
   exactly what it completes, so its knee is its completion rate —
   provided it meets the SLO; otherwise it has none (0). *)
let closed_loop ~ok ~ops ~seconds samples =
  let rate = float_of_int ops /. seconds in
  let p99 = percentile samples 0.99 *. 1e3 in
  {
    v_ops_per_s = rate;
    v_p50_ms = percentile samples 0.50 *. 1e3;
    v_p99_ms = p99;
    v_samples = Array.length samples;
    v_knee_ops_s = (if p99 <= slo_p99_ms && ok = 1.0 then rate else 0.0);
    v_ok_ratio = ok;
  }

let virt_fingerprint v =
  Printf.sprintf "%.17g %.17g %.17g %d %.17g %.17g" v.v_ops_per_s v.v_p50_ms v.v_p99_ms
    v.v_samples v.v_knee_ops_s v.v_ok_ratio

type e2e = {
  setup_s : float;
  wall_ops_per_s : float;
  alloc_kb_per_op : float;
  heap_peak_mb : float;
  virt : virt;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** correctness checks, by name *)
}

(* The traced run: the same fixed work untraced and traced (whose
   virtual figures must agree exactly), the per-layer values, and
   notes on where a value came from. *)
type traced = {
  plain : virt;
  traced : virt;
  wall_plain : float;
  wall_traced : float;
  values : (string * float) list;
  notes : (string * string) list;
  remarks : string list;
  t_attempted : int;
  t_failed : int;
  t_checks : (string * bool) list;
}

(* Set up [n] times, keep the last deployment, report the median
   set-up time. Earlier deployments are released before the next one
   starts; only what a library itself keeps stays live (Bonnie's
   Backend registers every DisCFS backend it builds, so walk's heap
   peak holds three). *)
let setups ~n f =
  let last = ref None in
  let times =
    Array.init n (fun _ ->
        last := None;
        Gc.full_major ();
        let st, dt = timed f in
        last := Some st;
        dt)
  in
  (Option.get !last, median times)

