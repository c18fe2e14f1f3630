(* ingest: one principal, closed loop, copying a tree in through the
   client — MKDIR per directory, then CREATE and one WRITE per file.
   Every CREATE has the server sign a fresh credential (paper §5), so
   the credential store grows through the round. Loads discfs
   credential issue (DSA sign + store epoch), keynote store adds and
   cold compliance checks, ffs allocation with write-through and ESP
   sealing of WRITE payloads; bypasses the read caches. *)

open Util
module Deploy = Discfs.Deploy
module Client = Discfs.Client

let dirs = 8
let files_per_dir = 24

type file = { dir : int; name : string; data : string; digest : string }

(* The tree to copy in: sizes up to one 8 KB WRITE, content from the
   benchmark's own generator. *)
let inputs ~seed =
  let rng = Rng.create seed in
  Array.init (dirs * files_per_dir) (fun i ->
      let size = 2048 + Rng.int rng 6144 in
      let data = source_text rng size in
      let data = String.sub data 0 (min (String.length data) Nfs.Proto.max_data) in
      {
        dir = i / files_per_dir;
        name = Printf.sprintf "f%03d.c" (i mod files_per_dir);
        data;
        digest = Digest.string data;
      })

type st = { d : Deploy.t; c : Client.t }

let setup ~seed ~tracing =
  let d =
    Deploy.make ~seed:(Printf.sprintf "perfbench-ingest-%d" seed) ~cache_blocks:4096 ~tracing ()
  in
  let c = Deploy.attach d ~identity:(Deploy.new_identity d) () in
  let cred =
    Deploy.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (Client.principal c))
      ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ~comment:"ingest user" ()
  in
  (match Client.submit_credential c cred with
  | Ok _ -> ()
  | Error e -> failwith ("ingest: credential submission failed: " ^ e));
  Simnet.Clock.reset d.Deploy.clock;
  { d; c }

type round = {
  virt_s : float;
  wall_s : float;
  op_virt : float array;  (** per file: CREATE + WRITE, virtual seconds *)
  create_wall : float array;  (** in call order, for the growth ratio *)
  write_wall : float array;
}

let round st files =
  let clock = st.d.Deploy.clock in
  let nfs = Client.nfs st.c in
  let root = Client.root st.c in
  let n = Array.length files in
  let op_virt = Array.make n 0.0 and cw = Array.make n 0.0 and ww = Array.make n 0.0 in
  let dirs = Hashtbl.create 16 in
  let v0 = Simnet.Clock.now clock in
  let (), wall_s =
    timed (fun () ->
        Array.iteri
          (fun i f ->
            let dir =
              match Hashtbl.find_opt dirs f.dir with
              | Some fh -> fh
              | None ->
                let fh, _, _ = Client.mkdir st.c ~dir:root (Printf.sprintf "d%02d" f.dir) () in
                Hashtbl.replace dirs f.dir fh;
                fh
            in
            let t = Simnet.Clock.now clock in
            let (fh, _, _), c = timed (fun () -> Client.create st.c ~dir f.name ()) in
            let _, w = timed (fun () -> Nfs.Client.write nfs fh ~off:0 f.data) in
            op_virt.(i) <- Simnet.Clock.now clock -. t;
            cw.(i) <- c;
            ww.(i) <- w)
          files)
  in
  let virt_s = Simnet.Clock.now clock -. v0 in
  { virt_s; wall_s; op_virt; create_wall = cw; write_wall = ww }

(* Files whose bytes, read back on the server side, match the digest
   of what was written. *)
let verified st files =
  let fs = st.d.Deploy.fs in
  Array.fold_left
    (fun acc f ->
      match Ffs.Fs.resolve fs (Printf.sprintf "/d%02d/%s" f.dir f.name) with
      | ino ->
        let got = Ffs.Fs.read fs ino ~off:0 ~len:(String.length f.data + 1) in
        if Digest.string got = f.digest then acc + 1 else acc
      | exception Ffs.Fs.Error _ -> acc)
    0 files

let virt_of_round r ~ok = closed_loop ~ok ~ops:(Array.length r.op_virt) ~seconds:r.virt_s r.op_virt

(* Each round copies the same tree into a fresh deployment, so every
   round does identical work; rounds repeat until [seconds] of timed
   window have passed (at least three, for the wall-clock median). *)
let e2e ~seed ~seconds =
  let files = inputs ~seed in
  let n = Array.length files in
  let _, setup_s = setups ~n:5 (fun () -> setup ~seed ~tracing:false) in
  let rounds = ref [] and alloc = ref 0.0 and window = ref 0.0 in
  while !window < seconds || List.length !rounds < 3 do
    let st = setup ~seed ~tracing:false in
    let a0 = allocated () in
    let r = round st files in
    alloc := !alloc +. (allocated () -. a0);
    window := !window +. r.wall_s;
    rounds := (r, verified st files) :: !rounds
  done;
  let rounds = List.rev !rounds in
  let attempted = n * List.length rounds in
  let failed = List.fold_left (fun acc (_, v) -> acc + (n - v)) 0 rounds in
  let first, first_ok = List.hd rounds in
  {
    setup_s;
    wall_ops_per_s = median (Array.of_list (List.map (fun (r, _) -> float_of_int n /. r.wall_s) rounds));
    alloc_kb_per_op = !alloc /. 1024.0 /. float_of_int attempted;
    heap_peak_mb = heap_peak_mb ();
    virt = virt_of_round first ~ok:(ratio first_ok n);
    attempted;
    failed;
    checks =
      [
        ("ingest: every file read back server-side matches the digest written", failed = 0);
        ( "ingest: every round takes the same virtual time",
          List.for_all (fun (r, _) -> r.virt_s = first.virt_s) rounds );
      ];
  }

let traced ~seed =
  let files = inputs ~seed in
  let n = Array.length files in
  let plain = setup ~seed ~tracing:false in
  let r_plain = round plain files in
  let ok_plain = ratio (verified plain files) n in
  let st = setup ~seed ~tracing:true in
  let metrics = st.d.Deploy.metrics in
  Trace.Metrics.reset metrics;
  Trace.reset st.d.Deploy.trace;
  let c0 = Layers.counters st.d in
  let r = round st files in
  let c1 = Layers.counters st.d in
  let spans = Layers.spans metrics in
  let good = verified st files in
  let ok = ratio good n in
  let sizes = Array.map (fun f -> float_of_int (String.length f.data)) files in
  let last = files.(n - 1) in
  let ino = Ffs.Fs.resolve plain.d.Deploy.fs (Printf.sprintf "/d%02d/%s" last.dir last.name) in
  {
    plain = virt_of_round r_plain ~ok:ok_plain;
    traced = virt_of_round r ~ok;
    wall_plain = r_plain.wall_s;
    wall_traced = r.wall_s;
    values =
      spans
      @ Layers.counter_deltas c0 c1 ~ops:n
      @ [
          ("wall_ops_per_s", float_of_int n /. r_plain.wall_s);
          ("discfs.create_ms", median r_plain.create_wall *. 1e3);
          ("discfs.create_growth", growth r_plain.create_wall);
          ("nfs.write.wall_us_p50", median r_plain.write_wall *. 1e6);
          ("ipsec.attach_ms", Layers.attach_ms plain.d);
        ]
      @ Layers.common plain.d ~principal:(Client.principal plain.c) ~ino
          ~msg_size:(int_of_float (median sizes));
    notes =
      [
        ( "discfs.create_growth",
          Printf.sprintf "last tenth of CREATEs over the first tenth, store 1 -> %d credentials" (n + 1) );
        ("keynote.query_us", "compliance replay against the store as it stands after the round");
        ("ipsec.esp_seal_us", "at the median WRITE size");
      ];
    remarks = [];
    t_attempted = n;
    t_failed = n - good;
    t_checks = [ ("ingest: every file read back server-side matches the digest written", ok = 1.0) ];
  }
