(* Unit and property tests for the bignum substrate. *)

module Nat = Bignum.Nat
module Modarith = Bignum.Modarith
module Prime = Bignum.Prime

let nat = Alcotest.testable Nat.pp Nat.equal

(* A deterministic xorshift-based rand_bits good enough for tests. *)
let test_rand =
  let state = ref 0x1e3779b97f4a7c15 in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int
  in
  fun bits ->
    let rec build acc have =
      if have >= bits then Nat.rem acc (Nat.shift_left Nat.one bits)
      else build (Nat.add (Nat.shift_left acc 30) (Nat.of_int (next () land 0x3fffffff))) (have + 30)
    in
    build Nat.zero 0

(* --- Reference implementations (oracles) ----------------------------- *)

(* The original exponentiation: left-to-right square and multiply with
   a full [Nat.rem] after every step. *)
let ref_pow ~m b e =
  if Nat.equal m Nat.one then Nat.zero
  else begin
    let b = Nat.rem b m in
    let result = ref Nat.one in
    for i = Nat.num_bits e - 1 downto 0 do
      result := Modarith.mul ~m !result !result;
      if Nat.bit e i then result := Modarith.mul ~m !result b
    done;
    !result
  end

(* The original byte parser: shift in one byte at a time. *)
let ref_of_bytes s =
  let n = ref Nat.zero in
  String.iter (fun c -> n := Nat.add (Nat.shift_left !n 8) (Nat.of_int (Char.code c))) s;
  !n

let gen_bytes lo hi = QCheck.Gen.(string_size ~gen:char (int_range lo hi))

(* A modulus of 1-40 limbs with the requested parity. *)
let gen_modulus ~odd =
  QCheck.Gen.map
    (fun s ->
      let m = Nat.logor (Nat.of_bytes_be ("\001" ^ s)) Nat.one in
      if odd then m else Nat.add m Nat.one)
    (gen_bytes 0 129)

let show_nats l = String.concat ", " (List.map Nat.to_hex l)

let gen_small = QCheck.Gen.int_bound ((1 lsl 30) - 1)

let arb_pair = QCheck.make QCheck.Gen.(pair gen_small gen_small)
let arb_triple = QCheck.make QCheck.Gen.(triple gen_small gen_small gen_small)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Nat.to_int (Nat.of_int n)))
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 26; (1 lsl 26) - 1; (1 lsl 52) + 12345; max_int ]

let test_add_sub () =
  let a = Nat.of_hex "ffffffffffffffffffffffffffffffff" in
  let b = Nat.of_hex "1" in
  let s = Nat.add a b in
  Alcotest.(check string) "carry chain" "100000000000000000000000000000000" (Nat.to_hex s);
  Alcotest.check nat "sub inverts add" a (Nat.sub s b);
  Alcotest.check nat "a - a = 0" Nat.zero (Nat.sub a a);
  Alcotest.check_raises "negative sub" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub b a))

let test_mul () =
  let a = Nat.of_decimal "123456789012345678901234567890" in
  let b = Nat.of_decimal "987654321098765432109876543210" in
  Alcotest.(check string) "big product"
    "121932631137021795226185032733622923332237463801111263526900"
    (Nat.to_decimal (Nat.mul a b));
  Alcotest.check nat "mul zero" Nat.zero (Nat.mul a Nat.zero);
  Alcotest.check nat "mul one" a (Nat.mul a Nat.one)

let test_divmod () =
  let a = Nat.of_decimal "121932631137021795226185032733622923332237463801111263526900" in
  let b = Nat.of_decimal "987654321098765432109876543210" in
  let q, r = Nat.divmod a b in
  Alcotest.(check string) "quotient" "123456789012345678901234567890" (Nat.to_decimal q);
  Alcotest.check nat "remainder" Nat.zero r;
  let q2, r2 = Nat.divmod (Nat.succ a) b in
  Alcotest.check nat "quotient+1 rem" Nat.one r2;
  Alcotest.check nat "same quotient" q q2;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Nat.divmod a Nat.zero))

let test_shift () =
  let a = Nat.of_hex "deadbeefcafebabe" in
  Alcotest.(check string) "shl 4" "deadbeefcafebabe0" (Nat.to_hex (Nat.shift_left a 4));
  Alcotest.(check string) "shr 8" "deadbeefcafeba" (Nat.to_hex (Nat.shift_right a 8));
  Alcotest.check nat "shl then shr" a (Nat.shift_right (Nat.shift_left a 100) 100);
  Alcotest.check nat "shr to zero" Nat.zero (Nat.shift_right a 64)

let test_bytes_roundtrip () =
  let s = "\x01\x02\x03\xff\x00\xab" in
  let n = Nat.of_bytes_be s in
  Alcotest.(check string) "to_bytes" s (Nat.to_bytes_be ~len:6 n);
  Alcotest.(check string) "hex" "10203ff00ab" (Nat.to_hex n);
  Alcotest.(check string) "padded" ("\x00\x00" ^ s) (Nat.to_bytes_be ~len:8 n);
  Alcotest.(check string) "zero bytes" "\x00" (Nat.to_bytes_be Nat.zero)

let test_num_bits () =
  Alcotest.(check int) "zero" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "one" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "255" 8 (Nat.num_bits (Nat.of_int 255));
  Alcotest.(check int) "256" 9 (Nat.num_bits (Nat.of_int 256));
  Alcotest.(check int) "2^100" 101 (Nat.num_bits (Nat.shift_left Nat.one 100))

let test_decimal_roundtrip () =
  let s = "340282366920938463463374607431768211456" in
  Alcotest.(check string) "decimal" s (Nat.to_decimal (Nat.of_decimal s))

let test_modexp () =
  (* 2^10 mod 1000 = 24 *)
  let r = Modarith.pow ~m:(Nat.of_int 1000) Nat.two (Nat.of_int 10) in
  Alcotest.check nat "2^10 mod 1000" (Nat.of_int 24) r;
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = Nat.of_int 1000003 in
  let a = Nat.of_int 123456 in
  Alcotest.check nat "fermat" Nat.one (Modarith.pow ~m:p a (Nat.pred p));
  Alcotest.check nat "pow zero" Nat.one (Modarith.pow ~m:p a Nat.zero)

let test_modinv () =
  let p = Nat.of_int 1000003 in
  let a = Nat.of_int 987654 in
  let inv = Modarith.inv ~m:p a in
  Alcotest.check nat "a * inv(a) = 1" Nat.one (Modarith.mul ~m:p a inv);
  Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (Modarith.inv ~m:(Nat.of_int 12) (Nat.of_int 8)))

let test_gcd () =
  Alcotest.check nat "gcd(12,8)" (Nat.of_int 4)
    (Modarith.gcd (Nat.of_int 12) (Nat.of_int 8));
  Alcotest.check nat "gcd(n,0)" (Nat.of_int 7) (Modarith.gcd (Nat.of_int 7) Nat.zero)

let test_primality () =
  let is_p n = Prime.is_probably_prime ~rand_bits:test_rand (Nat.of_int n) in
  List.iter (fun p -> Alcotest.(check bool) (Printf.sprintf "%d prime" p) true (is_p p))
    [ 2; 3; 5; 7; 97; 1009; 104729; 1000003 ];
  List.iter (fun c -> Alcotest.(check bool) (Printf.sprintf "%d composite" c) false (is_p c))
    [ 0; 1; 4; 100; 1001; 104730; 561; 41041; 825265 ] (* incl. Carmichael numbers *)

let test_gen_prime () =
  let p = Prime.gen_prime ~bits:64 ~rand_bits:test_rand in
  Alcotest.(check int) "64 bits" 64 (Nat.num_bits p);
  Alcotest.(check bool) "prime" true (Prime.is_probably_prime ~rand_bits:test_rand p);
  Alcotest.(check bool) "odd" true (Nat.is_odd p)

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:200 arb_pair (fun (a, b) ->
      Nat.equal (Nat.add (Nat.of_int a) (Nat.of_int b)) (Nat.add (Nat.of_int b) (Nat.of_int a)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches int" ~count:200 arb_pair (fun (a, b) ->
      Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_bound 0xffff) (int_bound 0xffff)))
    (fun (a, b) -> Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r with r < b" ~count:500 arb_pair (fun (a, b) ->
      let b = b + 1 in
      let q, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
      Nat.to_int q = a / b && Nat.to_int r = a mod b)

let prop_divmod_big =
  (* Exercise the multi-limb Knuth path: build large numbers from triples. *)
  QCheck.Test.make ~name:"divmod identity (multi-limb)" ~count:300 arb_triple
    (fun (a, b, c) ->
      let big =
        Nat.add (Nat.mul (Nat.of_int a) (Nat.shift_left Nat.one 80))
          (Nat.add (Nat.mul (Nat.of_int b) (Nat.shift_left Nat.one 40)) (Nat.of_int c))
      in
      let d = Nat.add (Nat.mul (Nat.of_int (b + 2)) (Nat.shift_left Nat.one 30)) (Nat.of_int a) in
      let q, r = Nat.divmod big d in
      Nat.compare r d < 0 && Nat.equal big (Nat.add (Nat.mul q d) r))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(string_size (int_range 1 40)))
    (fun s ->
      let n = Nat.of_bytes_be s in
      (* Leading zeros are not representable; compare via re-parse. *)
      Nat.equal n (Nat.of_bytes_be (Nat.to_bytes_be n)))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 arb_pair (fun (a, b) ->
      let n = Nat.mul (Nat.of_int a) (Nat.of_int (b + 1)) in
      Nat.equal n (Nat.of_hex (Nat.to_hex n)))

let prop_modinv =
  QCheck.Test.make ~name:"modular inverse" ~count:200 arb_pair (fun (a, _) ->
      let p = Nat.of_int 1073741789 (* prime *) in
      let a = Nat.of_int (a mod 1073741788 + 1) in
      Nat.equal Nat.one (Modarith.mul ~m:p a (Modarith.inv ~m:p a)))

let prop_pow_mul =
  QCheck.Test.make ~name:"b^(e1+e2) = b^e1 * b^e2 (mod m)" ~count:100 arb_triple
    (fun (b, e1, e2) ->
      let m = Nat.of_int 999999937 in
      let b = Nat.of_int b and e1 = Nat.of_int (e1 land 0xffff) and e2 = Nat.of_int (e2 land 0xffff) in
      Nat.equal
        (Modarith.pow ~m b (Nat.add e1 e2))
        (Modarith.mul ~m (Modarith.pow ~m b e1) (Modarith.pow ~m b e2)))

let test_modexp_edges () =
  let ones k = Nat.pred (Nat.shift_left Nat.one k) in
  let moduli =
    List.map Nat.of_hex
      [ "3"; "4"; "f4240"; "f4243"; "3ffffff"; "4000001"; "fffffffffffffffffffffffffffffffe";
        "acd0bcf48e5bf8072c8921a7e75eac1606d66e59cee62305781092bb0fd172a6\
         c4acbf277092d1b1d13e9363e91d158f69eb554fa4e621ca9dba4440dabcceff" ]
  in
  List.iter
    (fun m ->
      let bases = [ Nat.zero; Nat.one; Nat.pred m; m; Nat.add m Nat.two; Nat.mul m m; ones 200 ] in
      let exps = [ Nat.zero; Nat.one; Nat.two; ones 26; ones 160; m; Nat.add m (ones 40) ] in
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              Alcotest.check nat
                (Printf.sprintf "%s^%s mod %s" (Nat.to_hex b) (Nat.to_hex e) (Nat.to_hex m))
                (ref_pow ~m b e) (Modarith.pow ~m b e))
            exps)
        bases)
    moduli;
  Alcotest.check nat "m = 1" Nat.zero (Modarith.pow ~m:Nat.one (Nat.of_int 7) (Nat.of_int 3));
  Alcotest.check nat "m = 1, e = 0" Nat.zero (Modarith.pow ~m:Nat.one Nat.two Nat.zero);
  Alcotest.check_raises "m = 0" Division_by_zero (fun () ->
      ignore (Modarith.pow ~m:Nat.zero Nat.two Nat.one));
  Alcotest.check_raises "even context" (Invalid_argument "Modarith.context: even modulus")
    (fun () -> ignore (Modarith.context (Nat.of_int 10)))

let test_modexp_wide () =
  (* Wide moduli: past 128 limbs the Montgomery kernel settles its
     deferred carries mid-product; with every limb near its maximum an
     800-limb product would overflow 63-bit columns without that. *)
  let check name m b e = Alcotest.check nat name (ref_pow ~m b e) (Modarith.pow ~m b e) in
  List.iter
    (fun limbs ->
      let m = Nat.logor (Nat.shift_left Nat.one ((26 * limbs) - 1)) (Nat.of_int 12345) in
      check (Printf.sprintf "%d limbs" limbs) m
        (Nat.sub m (Nat.of_hex "deadbeefcafe"))
        (Nat.of_hex "f00dfeedbeef"))
    [ 127; 128; 129; 200; 257 ];
  (* m = R - 8191 with R = 2^(26*800), so R = 8191 (mod m); 8191 =
     2^13 - 1 divides R - 1, and b = (m - 1) / 8191 has Montgomery
     form b*R = m - 1, whose limbs are all at the maximum. *)
  let r = Nat.shift_left Nat.one (26 * 800) in
  let d = Nat.of_int 8191 in
  let m = Nat.sub r d in
  let b = Nat.div (Nat.pred m) d in
  Alcotest.check nat "montgomery form" (Nat.pred m) (Modarith.mul ~m b r);
  List.iter
    (fun e -> check (Printf.sprintf "800 full limbs, e = %d" e) m b (Nat.of_int e))
    [ 2; 3; 0x1ff ]

let test_modexp_zero_divisors () =
  (* Composite moduli whose powers reach zero: a result congruent to
     zero must come out as 0, not as m. *)
  List.iter
    (fun (m, b) ->
      List.iter
        (fun e ->
          Alcotest.check nat
            (Printf.sprintf "%s^%d mod %s" (Nat.to_hex b) e (Nat.to_hex m))
            (ref_pow ~m b (Nat.of_int e)) (Modarith.pow ~m b (Nat.of_int e)))
        [ 1; 2; 3; 40; 63; 64; 1000 ])
    [ (Nat.of_int 9, Nat.of_int 3); (Nat.of_int 25, Nat.of_int 10);
      (ref_pow ~m:(Nat.shift_left Nat.one 400) (Nat.of_int 3) (Nat.of_int 200), Nat.of_int 3);
      (ref_pow ~m:(Nat.shift_left Nat.one 400) (Nat.of_int 15) (Nat.of_int 60), Nat.of_int 45) ]

let arb_pow ~odd =
  QCheck.make
    ~print:(fun (m, b, e) -> show_nats [ m; b; e ])
    QCheck.Gen.(
      triple (gen_modulus ~odd)
        (map Nat.of_bytes_be (gen_bytes 0 140))
        (map Nat.of_bytes_be (gen_bytes 0 24)))

let prop_pow_oracle ~odd =
  QCheck.Test.make
    ~name:(Printf.sprintf "pow = square-and-multiply (%s moduli, 1-40 limbs)"
             (if odd then "odd" else "even"))
    ~count:150 (arb_pow ~odd)
    (fun (m, b, e) -> Nat.equal (ref_pow ~m b e) (Modarith.pow ~m b e))

let prop_pow_fixed =
  QCheck.Test.make ~name:"fixed-base pow = pow" ~count:60
    (QCheck.make
       ~print:(fun (m, g, bits, es) -> Printf.sprintf "bits %d: %s" bits (show_nats (m :: g :: es)))
       QCheck.Gen.(
         quad (gen_modulus ~odd:true)
           (map Nat.of_bytes_be (gen_bytes 0 140))
           (int_range 1 200)
           (list_size (int_range 1 4) (map Nat.of_bytes_be (gen_bytes 0 28)))))
    (fun (m, g, bits, es) ->
      let table = Modarith.fixed_base (Modarith.context m) g ~bits in
      List.for_all (fun e -> Nat.equal (Modarith.pow ~m g e) (Modarith.pow_fixed table e)) es)

let prop_pow2 =
  QCheck.Test.make ~name:"two-base pow = product of pows" ~count:100
    (QCheck.make
       ~print:(fun (m, (b1, e1), (b2, e2)) -> show_nats [ m; b1; e1; b2; e2 ])
       QCheck.Gen.(
         let nat lo hi = map Nat.of_bytes_be (gen_bytes lo hi) in
         triple (gen_modulus ~odd:true) (pair (nat 0 140) (nat 0 24)) (pair (nat 0 140) (nat 0 24))))
    (fun (m, (b1, e1), (b2, e2)) ->
      Nat.equal
        (Modarith.mul ~m (Modarith.pow ~m b1 e1) (Modarith.pow ~m b2 e2))
        (Modarith.pow2 (Modarith.context m) b1 e1 b2 e2))

let prop_bytes_padding =
  QCheck.Test.make ~name:"bytes: leading zeros, ?len padding, too-short len" ~count:300
    (QCheck.make
       ~print:(fun (z, s, pad) -> Printf.sprintf "%d zeros, %S, pad %d" z s pad)
       QCheck.Gen.(triple (int_bound 4) (gen_bytes 0 60) (int_bound 5)))
    (fun (zeros, s, pad) ->
      let s = String.make zeros '\000' ^ s in
      let n = Nat.of_bytes_be s in
      let len = String.length s in
      let first = ref 0 in
      while !first < len && s.[!first] = '\000' do incr first done;
      let minimal = String.sub s !first (len - !first) in
      let too_short =
        String.length minimal = 0
        ||
        match Nat.to_bytes_be ~len:(String.length minimal - 1) n with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      Nat.equal n (ref_of_bytes s)
      && Nat.to_bytes_be ~len n = s
      && Nat.to_bytes_be ~len:(len + pad) n = String.make pad '\000' ^ s
      && Nat.to_bytes_be n = (if minimal = "" then "\000" else minimal)
      && too_short)

let prop_hex_bytes =
  QCheck.Test.make ~name:"hex agrees with bytes" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_bytes 0 60))
    (fun s ->
      let n = Nat.of_bytes_be s in
      let hex = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i]))) in
      let stripped =
        let i = ref 0 in
        while !i < String.length hex && hex.[!i] = '0' do incr i done;
        if !i = String.length hex then "0" else String.sub hex !i (String.length hex - !i)
      in
      Nat.to_hex n = stripped
      && (hex = "" || Nat.equal n (Nat.of_hex hex))
      && (hex = "" || Nat.equal n (Nat.of_hex (String.uppercase_ascii hex))))

let suite =
  [
    Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "divmod" `Quick test_divmod;
    Alcotest.test_case "shifts" `Quick test_shift;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "num_bits" `Quick test_num_bits;
    Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
    Alcotest.test_case "modexp" `Quick test_modexp;
    Alcotest.test_case "modexp edge cases vs oracle" `Quick test_modexp_edges;
    Alcotest.test_case "modexp past 128 limbs" `Quick test_modexp_wide;
    Alcotest.test_case "modexp reaching zero" `Quick test_modexp_zero_divisors;
    Alcotest.test_case "modinv" `Quick test_modinv;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "primality" `Quick test_primality;
    Alcotest.test_case "gen_prime" `Slow test_gen_prime;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_add_matches_int;
    QCheck_alcotest.to_alcotest prop_mul_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_identity;
    QCheck_alcotest.to_alcotest prop_divmod_big;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_modinv;
    QCheck_alcotest.to_alcotest prop_pow_mul;
    QCheck_alcotest.to_alcotest (prop_pow_oracle ~odd:true);
    QCheck_alcotest.to_alcotest (prop_pow_oracle ~odd:false);
    QCheck_alcotest.to_alcotest prop_pow_fixed;
    QCheck_alcotest.to_alcotest prop_pow2;
    QCheck_alcotest.to_alcotest prop_bytes_padding;
    QCheck_alcotest.to_alcotest prop_hex_bytes;
  ]
