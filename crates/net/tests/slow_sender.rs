//! A sender descheduled mid-frame is slow, not desynchronised: the
//! server's 25 ms `stop`-poll tick must not drop a connection whose
//! request is half written.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;
use worlds_net::{read_frame, FaultProxy, FaultSchedule, NetNode, Reply, Request};
use worlds_obs::Registry;
use worlds_pagestore::{checkpoint, PageStore, WorldId};

const PAGE: usize = 64;

/// Write `wire` to `addr` in two halves 60 ms apart and return the reply
/// read from the same connection.
fn send_in_two_halves(addr: std::net::SocketAddr, wire: &[u8]) -> Reply {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let (head, tail) = wire.split_at(wire.len() / 2);
    s.write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    s.write_all(tail).unwrap();
    let (reply, _) = read_frame(&mut s).expect("the reply arrives on the same connection");
    Reply::decode(reply.kind, &reply.payload).unwrap()
}

#[test]
fn a_request_written_in_two_halves_60ms_apart_is_still_served() {
    let node = NetNode::serve(1, PageStore::new(PAGE), Registry::disabled()).unwrap();
    let local = PageStore::new(PAGE);
    let w = local.create_world();
    for vpn in 0..32 {
        local.write(w, vpn, 0, &[vpn as u8 + 1; PAGE]).unwrap();
    }
    let rfork = Request::Rfork {
        image: checkpoint(&local, w).unwrap(),
    };

    // Straight at the server…
    let Reply::Ack { world } = send_in_two_halves(node.addr(), &rfork.encode_frame(0xA1)) else {
        panic!("rfork was not acked");
    };
    let there = WorldId::from_raw(world);
    assert_eq!(node.store().read_vec(there, 31, 0, 1).unwrap(), vec![32]);

    // …and through the relay, whose client side polls the same way.
    let proxy =
        FaultProxy::spawn(node.addr(), FaultSchedule::none(), Registry::disabled()).unwrap();
    let reply = send_in_two_halves(proxy.addr(), &rfork.encode_frame(0xA2));
    assert!(matches!(reply, Reply::Ack { .. }), "{reply:?}");
    proxy.shutdown();
    node.shutdown();
}
