(* Layer replays: public functions of single layers, timed from
   outside on inputs taken from the workload's own deployment (its
   DSA group and keys, its credential store, its message sizes). *)

open Util
module Deploy = Discfs.Deploy
module Dsa = Dcrypto.Dsa

(* Virtual self time of a layer, summed over the traced run's
   [span.self.<layer>.*] histograms. *)
let self_time metrics layer =
  let prefix = "span.self." ^ layer ^ "." in
  let n = String.length prefix in
  List.fold_left
    (fun s (name, h) ->
      if String.length name > n && String.sub name 0 n = prefix then s +. Trace.Metrics.sum h else s)
    0.0
    (Trace.Metrics.histograms metrics)

let hit_ratio hits misses = ratio hits (hits + misses)

(* The compliance question the server would ask for [principal] on
   [ino] (the attribute set of [Server.query_level]). *)
let attributes (d : Deploy.t) ino =
  let fs = d.Deploy.fs in
  [
    ("app_domain", "DisCFS");
    ("HANDLE", string_of_int ino);
    ("GENERATION", string_of_int (Ffs.Fs.generation fs ino));
    ("PATH", Option.value (Ffs.Fs.path_of fs ino) ~default:"");
    ("hour", "0");
  ]

(* ESP seal and open of a [size]-byte payload on a fresh SA pair with
   the deployments' default transform (ChaCha20-Poly1305): batches of
   packets are sealed, then opened in order (the anti-replay window
   only accepts fresh sequence numbers). Median per-packet seconds of
   each. *)
let esp ~size =
  let clock = Simnet.Clock.create () and stats = Simnet.Stats.create () in
  let mk () =
    Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:0x1001
      ~key:(String.make 32 'k') ()
  in
  let out = mk () and inb = mk () in
  let payload = String.make size 'p' in
  let n = 256 in
  let packets = Array.make n "" in
  let rounds =
    Array.init 11 (fun _ ->
        let (), s = timed (fun () -> for i = 0 to n - 1 do packets.(i) <- Ipsec.Esp.seal out payload done) in
        let (), o =
          timed (fun () -> Array.iter (fun p -> ignore (Ipsec.Esp.open_ inb p)) packets)
        in
        (s /. float_of_int n, o /. float_of_int n))
  in
  (median (Array.map fst rounds), median (Array.map snd rounds))

(* Replays common to every workload. [principal] and [ino] pick the
   compliance question; [msg_size] is the workload's typical sealed
   message. *)
let common (d : Deploy.t) ~principal ~ino ~msg_size =
  let params = d.Deploy.admin.Dsa.pub.Dsa.params in
  let admin = d.Deploy.admin in
  let drbg = Dcrypto.Drbg.create ~seed:"perfbench-replay" in
  let session = Discfs.Server.session d.Deploy.server in
  let creds = Keynote.Session.credentials session in
  let store = String.concat "" (List.map (fun a -> a.Keynote.Assertion.full_text) creds) in
  let msg = match creds with a :: _ -> a.Keynote.Assertion.body_text | [] -> "perfbench" in
  let exp = Bignum.Nat.of_bytes_be (Dcrypto.Drbg.bytes drbg 20) in
  let modexp =
    per_call ~batches:7 (fun () ->
        ignore (Bignum.Modarith.pow ~m:params.Dsa.p admin.Dsa.pub.Dsa.y exp))
  in
  let keygen = per_call ~batches:7 (fun () -> ignore (Dsa.generate_key ~params drbg)) in
  let sg = Dsa.sign ~key:admin drbg msg in
  let sign = per_call ~batches:7 (fun () -> ignore (Dsa.sign ~key:admin drbg msg)) in
  let verify =
    per_call ~batches:7 (fun () -> if not (Dsa.verify ~key:admin.Dsa.pub msg sg) then failwith "verify")
  in
  let sha1 = per_call (fun () -> ignore (Dcrypto.Sha1.digest store)) in
  let buf = String.make 65536 'c' in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let chacha = per_call (fun () -> ignore (Dcrypto.Chacha20.crypt ~key ~nonce buf)) in
  let attributes = attributes d ino in
  let query =
    per_call (fun () ->
        ignore (Keynote.Session.query session ~requesters:[ principal ] ~attributes))
  in
  let seal, opened = esp ~size:msg_size in
  [
    ("bignum.modexp_ms", modexp *. 1e3);
    ("dcrypto.keygen_ms", keygen *. 1e3);
    ("dcrypto.dsa_sign_ms", sign *. 1e3);
    ("dcrypto.dsa_verify_ms", verify *. 1e3);
    ("dcrypto.sha1_mb_s", float_of_int (String.length store) /. sha1 /. 1e6);
    ("dcrypto.chacha20_mb_s", 65536.0 /. chacha /. 1e6);
    ("keynote.query_us", query *. 1e6);
    ("ipsec.esp_seal_us", seal *. 1e6);
    ("ipsec.esp_open_us", opened *. 1e6);
  ]

(* Wall time of one more IKE attach + mount on the deployment. *)
let attach_ms (d : Deploy.t) =
  let ids = Array.init 5 (fun _ -> Deploy.new_identity d) in
  median (Array.map (fun id -> snd (timed (fun () -> Deploy.attach d ~identity:id ()))) ids)
  *. 1e3

(* Per-layer virtual self time and span-derived figures of a traced
   window. *)
let spans metrics =
  let s = self_time metrics in
  [
    ("xdr.virt_self_s", s "xdr");
    ("oncrpc.virt_self_s", s "rpc");
    ("ipsec.esp.virt_self_s", s "esp");
    ("ffs.disk.virt_self_s", s "disk");
  ]
  @ List.filter_map
      (fun cache ->
        let hits = Trace.Metrics.counter metrics ("cache." ^ cache ^ ".hits")
        and misses = Trace.Metrics.counter metrics ("cache." ^ cache ^ ".misses") in
        if hits + misses = 0 then None
        else Some ("nfs." ^ cache ^ "_cache.hit_ratio", hit_ratio hits misses))
      [ "attr"; "name" ]

(* Counters of the server's own structures, as deltas over a window. *)
type counters = {
  calls : int;
  cold : int;
  memo_hits : int;
  memo_misses : int;
  bc_hits : int;
  bc_misses : int;
  reads : int;
  writes : int;
  rejects : int;
  retrans : int;
}

let counters (d : Deploy.t) =
  let get = Simnet.Stats.get d.Deploy.stats in
  let pc = Discfs.Server.cache d.Deploy.server in
  {
    calls = get "rpc.calls";
    cold = get "keynote.queries";
    memo_hits = Discfs.Policy_cache.hits pc;
    memo_misses = Discfs.Policy_cache.misses pc;
    bc_hits = Ffs.Blockdev.cache_hits d.Deploy.dev;
    bc_misses = Ffs.Blockdev.cache_misses d.Deploy.dev;
    reads = Ffs.Blockdev.reads d.Deploy.dev;
    writes = Ffs.Blockdev.writes d.Deploy.dev;
    rejects = get "rpc.queue_rejects";
    retrans = get "rpc.retransmits";
  }

let counter_deltas a b ~ops =
  let per x = float_of_int x /. float_of_int ops in
  [
    ("oncrpc.calls_per_op", per (b.calls - a.calls));
    ("keynote.cold_evals_per_op", per (b.cold - a.cold));
    ("discfs.policy_cache.hit_ratio", hit_ratio (b.memo_hits - a.memo_hits) (b.memo_misses - a.memo_misses));
    ("ffs.bcache.hit_ratio", hit_ratio (b.bc_hits - a.bc_hits) (b.bc_misses - a.bc_misses));
    ("ffs.disk_reads", float_of_int (b.reads - a.reads));
    ("ffs.disk_writes", float_of_int (b.writes - a.writes));
    ("oncrpc.queue.rejects", float_of_int (b.rejects - a.rejects));
    ("oncrpc.retransmits", float_of_int (b.retrans - a.retrans));
  ]
