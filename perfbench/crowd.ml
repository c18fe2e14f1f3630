(* crowd: more principals than the 128-entry policy memo, each with
   its own DSA key, IKE SA and a handle-scoped admin credential for
   its own file. Open-loop Poisson arrivals (Simnet.Arrival onto
   Sched) climb a fixed ladder of offered rates against the pooled
   server (4 workers, queue 64), 1:2:1 GETATTR/READ/WRITE, then hold
   one fixed rate below the knee. Setup loads bignum/dcrypto/ipsec
   (key generation, DH, DSA) and credential submission; the run phase
   is the only place the scheduler, the RPC worker queue and
   policy-memo misses (cold KeyNote evaluations) matter. *)

open Util
module Deploy = Discfs.Deploy
module Client = Discfs.Client
module Sched = Simnet.Sched
module Proto = Nfs.Proto

let principals = 200
let workers = 4
let queue_depth = 64
let file_size = 8192

(* Offered rates (ops per virtual second), ascending, straddling the
   knee; each rung offers the same number of requests. *)
let ladder = [| 200.0; 400.0; 600.0; 800.0; 1000.0; 1100.0; 1300.0; 1500.0 |]
let rung_ops = 1000

(* The fixed rate below the knee where latency percentiles are taken,
   in batches: the first [fixed_batches] give the virtual figures,
   every batch gives a wall-clock sample. *)
let fixed_rate = 600.0
let batch_ops = 500
let fixed_batches = 4

(* Every [neg_every]-th arrival comes from the negative-control
   principal, who holds no credential and must be refused. *)
let neg_every = 50

(* The SLO a rung must meet to count below the knee. *)
let slo_p99 = slo_p99_ms /. 1e3

(* Request indices within one batch stay below this. *)
let max_requests = 2048

type member = { c : Client.t; fh : Proto.fh; model : Bytes.t }

type st = {
  d : Deploy.t;
  sched : Sched.t;
  members : member array;
  neg : Client.t;
  blocks : string array;  (** WRITE payloads *)
  sizes : int array;  (** per request index: draws for the READ/WRITE size *)
  seed : int;
  keygen_wall : float array;
  attach_wall : float array;
  submit_wall : float array;  (** in submission order, for the growth ratio *)
}

let setup ~seed ~tracing =
  let d =
    Deploy.make ~seed:(Printf.sprintf "perfbench-crowd-%d" seed) ~cache_blocks:4096 ~workers
      ~queue_depth ~tracing ()
  in
  let sched = Option.get d.Deploy.sched in
  let rng = Rng.create seed in
  let fs = d.Deploy.fs in
  let kw = Array.make principals 0.0 and aw = Array.make principals 0.0 in
  let sw = Array.make principals 0.0 in
  let members =
    Array.init principals (fun i ->
        let id, k = timed (fun () -> Deploy.new_identity d) in
        let c, a = timed (fun () -> Deploy.attach d ~identity:id ~uid:(1000 + i) ()) in
        let content = source_text rng file_size in
        let content = String.sub content 0 file_size in
        let ino =
          Ffs.Fs.create_file fs (Ffs.Fs.root fs) (Printf.sprintf "u%03d.dat" i) ~perms:0o600 ~uid:0
        in
        Ffs.Fs.write fs ino ~off:0 content;
        let cred =
          Deploy.admin_issue d
            ~licensees:(Printf.sprintf "\"%s\"" (Client.principal c))
            ~conditions:
              (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RWX\";" ino)
            ()
        in
        let r, s = timed (fun () -> Client.submit_credential c cred) in
        (match r with Ok _ -> () | Error e -> failwith ("crowd: submission failed: " ^ e));
        kw.(i) <- k;
        aw.(i) <- a;
        sw.(i) <- s;
        { c; fh = { Proto.ino; gen = Ffs.Fs.generation fs ino }; model = Bytes.of_string content })
  in
  let neg = Deploy.attach d ~identity:(Deploy.new_identity d) ~uid:999 () in
  (* Warm-up: every principal reads its file once, serially. *)
  Array.iter
    (fun m ->
      let _, data = Nfs.Client.read (Client.nfs m.c) m.fh ~off:0 ~count:file_size in
      if data <> Bytes.to_string m.model then failwith "crowd: warm-up read differs")
    members;
  let blocks = Array.init 8 (fun _ -> String.sub (source_text rng 2048) 0 2048) in
  let sizes = Array.init max_requests (fun _ -> Rng.int rng 1_000_000) in
  { d; sched; members; neg; blocks; sizes; seed; keygen_wall = kw; attach_wall = aw; submit_wall = sw }

(* One op of the 1:2:1 mix on a member's own file: WRITEs of 512 B to
   2 KB, READs of 1 to 4 KB, sizes drawn per request from the seed.
   READs are checked against the member's content model: a member's
   ops run one at a time in arrival order, so the model is exact. *)
let mixed_op st m i =
  let nfs = Client.nfs m.c in
  let off = i * 1024 mod 4096 in
  match i mod 4 with
  | 0 ->
    let data = String.sub st.blocks.(i mod Array.length st.blocks) 0 (512 + st.sizes.(i) mod 1537) in
    ignore (Nfs.Client.write nfs m.fh ~off data);
    Bytes.blit_string data 0 m.model off (String.length data);
    true
  | 1 ->
    let a = Nfs.Client.getattr nfs m.fh in
    a.Proto.size = file_size
  | _ ->
    let count = 1024 + st.sizes.(i) mod 3073 in
    let _, data = Nfs.Client.read nfs m.fh ~off ~count in
    String.equal data (Bytes.sub_string m.model off count)

type outcome = Ok_op | Bad_op | Refused

type batch = {
  ops : int;  (** offered requests, negative controls excluded *)
  completed : int;
  failed : int;
  lat : float array;  (** arrival-to-completion, completed ops only *)
  span_offered : float;  (** first to last arrival *)
  span_done : float;  (** first arrival to last completion *)
  neg : int;  (** negative-control requests *)
  refused : int;  (** of which refused with NFSERR_ACCES: must be all *)
  events : int;
  wall_s : float;
}

(* Offer [n] Poisson arrivals at [rate] and run the scheduler until
   every one has completed. Each principal is a serial channel (one
   connection never carries two overlapping calls); the arrival clock
   runs regardless, and latency is measured from the scheduled
   arrival instant, so waiting for a busy channel counts. *)
let offer st ~label ~rate ~n =
  let sched = st.sched in
  let clock = Sched.clock sched in
  let arrivals =
    Simnet.Arrival.create
      ~seed:(Printf.sprintf "perfbench-crowd-%d-%s" st.seed label)
      (Simnet.Arrival.Poisson { rate })
  in
  let times = Simnet.Arrival.times arrivals ~n in
  let pick = Rng.create (st.seed lxor Hashtbl.hash label) in
  let nm = Array.length st.members in
  let chan = Array.init n (fun i -> if i mod neg_every = neg_every - 1 then nm else Rng.int pick nm) in
  let boxes = Array.init (nm + 1) (fun _ -> Sched.Mailbox.create ()) in
  let pending = Array.make (nm + 1) 0 in
  Array.iter (fun k -> pending.(k) <- pending.(k) + 1) chan;
  let outcome = Array.make n Bad_op and done_at = Array.make n nan in
  let base = Simnet.Clock.now clock in
  let ev0 = Sched.events_run sched in
  let job i () =
    let r =
      if chan.(i) = nm then
        (* The negative control targets someone else's file. *)
        let m = st.members.(i / neg_every mod nm) in
        let nfs = Client.nfs st.neg in
        match
          if i / neg_every mod 2 = 0 then ignore (Nfs.Client.read nfs m.fh ~off:0 ~count:2048)
          else ignore (Nfs.Client.write nfs m.fh ~off:0 st.blocks.(0))
        with
        | () -> Bad_op
        | exception Proto.Nfs_error e when e = Proto.nfserr_acces -> Refused
        | exception (Proto.Nfs_error _ | Oncrpc.Rpc.Rpc_timeout _) -> Bad_op
      else
        match mixed_op st st.members.(chan.(i)) i with
        | true -> Ok_op
        | false -> Bad_op
        | exception (Proto.Nfs_error _ | Oncrpc.Rpc.Rpc_timeout _) -> Bad_op
    in
    outcome.(i) <- r;
    done_at.(i) <- Simnet.Clock.now clock
  in
  let (), wall_s =
    timed (fun () ->
        Array.iteri
          (fun i k ->
            ignore
              (Sched.spawn_at sched (base +. times.(i)) (fun () ->
                   Sched.Mailbox.push sched boxes.(k) (job i))))
          chan;
        Array.iteri
          (fun k box ->
            let jobs = pending.(k) in
            if jobs > 0 then
              Sched.spawn sched (fun () ->
                  for _ = 1 to jobs do
                    match Sched.Mailbox.take sched box ~timeout:1e6 with
                    | Some f -> f ()
                    | None -> failwith "crowd: channel starved"
                  done))
          boxes;
        Sched.run sched)
  in
  let ops = ref 0 and completed = ref 0 and neg = ref 0 and refused = ref 0 in
  let lat = ref [] and last_done = ref base in
  Array.iteri
    (fun i k ->
      if done_at.(i) > !last_done then last_done := done_at.(i);
      if k = nm then begin
        incr neg;
        if outcome.(i) = Refused then incr refused
      end
      else begin
        incr ops;
        if outcome.(i) = Ok_op then begin
          incr completed;
          lat := (done_at.(i) -. (base +. times.(i))) :: !lat
        end
      end)
    chan;
  {
    ops = !ops;
    completed = !completed;
    failed = !ops - !completed;
    lat = Array.of_list !lat;
    span_offered = times.(n - 1) -. times.(0);
    span_done = !last_done -. (base +. times.(0));
    neg = !neg;
    refused = !refused;
    events = Sched.events_run sched - ev0;
    wall_s;
  }

let batch_rate b = float_of_int b.ops /. b.wall_s
let achieved b = float_of_int b.completed /. b.span_done
let offered b = float_of_int b.ops /. b.span_offered

(* A rung is below the knee when its exact p99 meets the SLO, nothing
   failed, and no backlog built up: completions kept within 10 % of
   the offered rate. *)
let sustains b =
  b.failed = 0 && percentile b.lat 0.99 <= slo_p99 && achieved b >= 0.9 *. offered b

let ladder_run st =
  Array.mapi (fun k rate -> offer st ~label:(Printf.sprintf "rung%d" k) ~rate ~n:rung_ops) ladder

(* The knee: the last rung of the initial sustaining run of the
   ladder, reported as the throughput it achieved (0 if even the first
   rung fails the SLO). *)
let knee rungs =
  let rec go k = if k < Array.length rungs && sustains rungs.(k) then go (k + 1) else k - 1 in
  let k = go 0 in
  if k < 0 then 0.0 else achieved rungs.(k)

let fixed_batch st k = offer st ~label:(Printf.sprintf "fixed%d" k) ~rate:fixed_rate ~n:batch_ops

let sum f a = Array.fold_left (fun acc b -> acc + f b) 0 a

(* The virtual figures: latency percentiles pooled over the fixed
   batches, the knee from the ladder. *)
let virt_of rungs fixed =
  let all = Array.append rungs fixed in
  let lat = Array.concat (Array.to_list (Array.map (fun b -> b.lat) fixed)) in
  {
    v_ops_per_s =
      float_of_int (sum (fun b -> b.completed) fixed)
      /. Array.fold_left (fun acc b -> acc +. b.span_done) 0.0 fixed;
    v_p50_ms = percentile lat 0.50 *. 1e3;
    v_p99_ms = percentile lat 0.99 *. 1e3;
    v_samples = Array.length lat;
    v_knee_ops_s = knee rungs;
    v_ok_ratio = ratio (sum (fun b -> b.completed) all) (sum (fun b -> b.ops) all);
  }

let checks batches =
  let neg = sum (fun b -> b.neg) batches in
  [
    ( "crowd: the negative control is refused (NFSERR_ACCES) on every attempt",
      neg > 0 && sum (fun b -> b.refused) batches = neg );
    ("crowd: every offered request completed with the modelled data", sum (fun b -> b.failed) batches = 0);
  ]

let e2e ~seed ~seconds =
  let st, setup_s = setups ~n:3 (fun () -> setup ~seed ~tracing:false) in
  let a0 = allocated () in
  let t0 = wall () in
  let rungs = ladder_run st in
  let fixed = Array.init fixed_batches (fixed_batch st) in
  let extra = ref [] in
  while wall () -. t0 < seconds do
    extra := fixed_batch st (fixed_batches + List.length !extra) :: !extra
  done;
  let batches = Array.append fixed (Array.of_list (List.rev !extra)) in
  let all = Array.append rungs batches in
  let attempted = sum (fun b -> b.ops) all in
  {
    setup_s;
    wall_ops_per_s = median (Array.map batch_rate batches);
    alloc_kb_per_op = (allocated () -. a0) /. 1024.0 /. float_of_int attempted;
    heap_peak_mb = heap_peak_mb ();
    virt = virt_of rungs fixed;
    attempted;
    failed = sum (fun b -> b.failed) all;
    checks = checks all;
  }

let rung_growth rungs =
  let per_op b = b.wall_s /. float_of_int b.ops in
  per_op rungs.(Array.length rungs - 1) /. per_op rungs.(0)

(* A serial run of the same mix by the same principals: calls made
   outside any scheduler process take the serial path, which is the
   one whose layers can be traced. Returns per-op virtual latency and
   per-procedure wall time, and the ops whose data was wrong. *)
let replay st ~n =
  let clock = st.d.Deploy.clock in
  let pick = Rng.create st.seed in
  let lat = Array.make n 0.0 and per_proc = Array.make 4 [] and bad = ref 0 in
  for i = 0 to n - 1 do
    let m = st.members.(Rng.int pick principals) in
    let t = Simnet.Clock.now clock in
    let ok, dt = timed (fun () -> mixed_op st m i) in
    if not ok then incr bad;
    lat.(i) <- Simnet.Clock.now clock -. t;
    per_proc.(i mod 4) <- dt :: per_proc.(i mod 4)
  done;
  (lat, per_proc, !bad)

let replay_ops = 400

let virt_of_replay (lat, _, bad) =
  closed_loop ~ok:(ratio (replay_ops - bad) replay_ops) ~ops:replay_ops
    ~seconds:(Array.fold_left ( +. ) 0.0 lat) lat

(* The pooled phase runs untraced: tracing a pooled deployment is not
   possible today (server-side spans of interleaved workers cross and
   [Trace.end_span] raises), which the run probes and reports. The
   queue histograms and Stats counters are recorded untraced anyway;
   self times and the tracing-identity check come from the serial
   replay, run on an untraced and a traced deployment. *)
let traced ~seed =
  let st = setup ~seed ~tracing:false in
  let ((_, per_proc, pbad) as plain_replay) = replay st ~n:replay_ops in
  let metrics = st.d.Deploy.metrics in
  let rungs = ladder_run st in
  Trace.Metrics.reset metrics;
  let c0 = Layers.counters st.d in
  let fixed = Array.init fixed_batches (fixed_batch st) in
  let c1 = Layers.counters st.d in
  let ops = sum (fun b -> b.ops) fixed in
  let events = sum (fun b -> b.events) fixed in
  let wall_of a = Array.fold_left (fun acc b -> acc +. b.wall_s) 0.0 a in
  let q name p =
    match Trace.Metrics.quantile_est (Trace.Metrics.histogram metrics name) p with
    | Trace.Metrics.Q_at v | Trace.Metrics.Q_ge v -> v *. 1e3
    | Trace.Metrics.Q_empty -> 0.0
  in
  let queue =
    [
      ("oncrpc.queue.wait_ms_p99", q "rpc.queue.wait" 0.99);
      ("oncrpc.queue.service_ms_p50", q "rpc.queue.service" 0.50);
      ("oncrpc.queue.peak", float_of_int (Oncrpc.Rpc.queue_peak st.d.Deploy.rpc));
      ("simnet.sched.events", float_of_int events);
      ("simnet.sched.wall_us_per_event", wall_of fixed /. float_of_int events *. 1e6);
    ]
  in
  let m0 = st.members.(0) in
  let common =
    Layers.common st.d ~principal:(Client.principal m0.c) ~ino:m0.fh.Proto.ino ~msg_size:2048
  in
  let tst = setup ~seed ~tracing:true in
  let tmetrics = tst.d.Deploy.metrics in
  Trace.Metrics.reset tmetrics;
  Trace.reset tst.d.Deploy.trace;
  let (((_, _, tbad) as traced_replay), wall_traced) = timed (fun () -> replay tst ~n:replay_ops) in
  let spans = Layers.spans tmetrics in
  let pooled =
    match offer tst ~label:"traced-probe" ~rate:fixed_rate ~n:100 with
    | _ -> "a traced pooled phase completes"
    | exception e -> "a traced pooled phase aborts: " ^ Printexc.to_string e
  in
  let p50 l = median (Array.of_list l) *. 1e6 in
  let plain_wall = Array.fold_left (fun acc l -> List.fold_left ( +. ) acc l) 0.0 per_proc in
  let all = Array.append rungs fixed in
  {
    plain = virt_of_replay plain_replay;
    traced = virt_of_replay traced_replay;
    wall_plain = plain_wall;
    wall_traced;
    values =
      spans
      @ Layers.counter_deltas c0 c1 ~ops
      @ queue
      @ [
          ("wall_ops_per_s", median (Array.map batch_rate fixed));
          ("nfs.write.wall_us_p50", p50 per_proc.(0));
          ("nfs.getattr.wall_us_p50", p50 per_proc.(1));
          ("nfs.read.wall_us_p50", p50 (per_proc.(2) @ per_proc.(3)));
          ("dcrypto.keygen_ms", median st.keygen_wall *. 1e3);
          ("ipsec.attach_ms", median st.attach_wall *. 1e3);
          ("discfs.submit_ms", median st.submit_wall *. 1e3);
          ("discfs.submit_growth", growth st.submit_wall);
          ("crowd.rung_wall_growth", rung_growth rungs);
        ]
      @ common;
    notes =
      [
        ("xdr.virt_self_s", "serial replay of the mix, like every virt_self_s here");
        ("oncrpc.queue.wait_ms_p99", "rpc.queue.* histograms at the fixed rate, bucket-interpolated");
        ("dcrypto.keygen_ms", "median over the set-up key generations");
        ("ipsec.attach_ms", "median over the set-up attaches");
        ("discfs.submit_growth", "last tenth of submissions over the first tenth, store 0 -> 200");
        ("crowd.rung_wall_growth", "wall per op, top rung over bottom rung");
      ];
    remarks = [ "virtual figures compared: the serial replay of the mix; " ^ pooled ];
    t_attempted = sum (fun b -> b.ops) all + (2 * replay_ops);
    t_failed = sum (fun b -> b.failed) all + pbad + tbad;
    t_checks =
      ("crowd: every replayed request returned the modelled data", pbad + tbad = 0) :: checks all;
  }
