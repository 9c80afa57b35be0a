//! Integration: device interrupts → event service → pop-up threads →
//! protocol processing. The full "interrupts become threads" pipeline of
//! the paper's event-management section.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use paramecium::machine::dev::nic::{Nic, NIC_IRQ};
use paramecium::machine::trap::IRQ_VECTOR_BASE;
use paramecium::netstack::{install_driver, make_udp_stack, wire};
use paramecium::prelude::*;
use paramecium::threads::popup::PopupFactory;
use paramecium::threads::Channel;

const MY_IP: u32 = 0x0A00_0001;
const MY_MAC: wire::Mac = [2, 0, 0, 0, 0, 1];

#[test]
fn nic_interrupts_drive_popup_pump_threads() {
    let world = World::boot();
    let n = &world.nucleus;
    install_driver(n, KERNEL_DOMAIN).unwrap();
    let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
    let stack = make_udp_stack(dev, MY_IP, MY_MAC);
    stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();

    let scheduler = Scheduler::new(n.machine().clone());
    let engine = PopupEngine::new(scheduler.clone(), PopupMode::Proto);

    // Each NIC interrupt pops up a handler that pumps the stack. It never
    // blocks, so every interrupt rides the proto fast path.
    let pumped = Arc::new(AtomicU64::new(0));
    let factory: PopupFactory = {
        let (stack, pumped) = (stack.clone(), pumped.clone());
        Arc::new(move |_trap| {
            let (stack, pumped) = (stack.clone(), pumped.clone());
            Box::new(move |_ctx| {
                let v = stack.invoke("udp", "pump", &[]).expect("pump");
                pumped.fetch_add(v.as_int().unwrap() as u64, Ordering::Relaxed);
                Step::Done
            })
        })
    };
    engine
        .attach(&n.events, IRQ_VECTOR_BASE + NIC_IRQ, KERNEL_DOMAIN, factory)
        .unwrap();

    // Frames arrive in bursts; poll() delivers interrupts.
    for burst in 0..5 {
        {
            let machine = n.machine().clone();
            let mut m = machine.lock();
            let nic = m.device_mut::<Nic>("nic").unwrap();
            for i in 0..4 {
                let frame = wire::build_udp_frame(
                    [9; 6],
                    MY_MAC,
                    0x0A00_0002,
                    MY_IP,
                    1000 + burst,
                    53,
                    &[burst as u8, i as u8],
                );
                nic.inject_rx(frame);
            }
        }
        n.poll(10);
        scheduler.run_until_idle(32);
    }

    assert_eq!(pumped.load(Ordering::Relaxed), 20, "all frames pumped");
    let stats = engine.stats();
    assert!(
        stats.fast_path >= 5,
        "interrupts coalesce but at least one per burst"
    );
    assert_eq!(stats.promotions, 0, "pump never blocks");
    // All datagrams are queued on port 53.
    let mut received = 0;
    loop {
        let d = stack.invoke("udp", "recv_from", &[Value::Int(53)]).unwrap();
        if d.as_list().unwrap().is_empty() {
            break;
        }
        received += 1;
    }
    assert_eq!(received, 20);
}

#[test]
fn blocking_consumer_thread_wakes_on_channel_data_from_interrupts() {
    // Producer: interrupt handlers (proto-threads) push into a channel.
    // Consumer: a regular thread that blocks on the channel.
    let world = World::boot();
    let n = &world.nucleus;
    let machine = n.machine().clone();
    let scheduler = Scheduler::new(machine.clone());
    let engine = PopupEngine::new(scheduler.clone(), PopupMode::Proto);
    let chan: Arc<Channel<u32>> = Channel::new(&scheduler, 64);

    let consumed = Arc::new(AtomicU64::new(0));
    {
        let (chan, consumed) = (chan.clone(), consumed.clone());
        scheduler.spawn(Box::new(move |_ctx| match chan.try_recv() {
            Some(v) => {
                consumed.fetch_add(u64::from(v), Ordering::Relaxed);
                Step::Yield
            }
            None => Step::Block(chan.clone()),
        }));
    }

    let factory: PopupFactory = {
        let chan = chan.clone();
        let seq = Arc::new(AtomicU64::new(1));
        Arc::new(move |_trap| {
            let chan = chan.clone();
            let v = seq.fetch_add(1, Ordering::Relaxed) as u32;
            Box::new(move |_ctx| {
                chan.try_send(v);
                Step::Done
            })
        })
    };
    engine
        .attach(
            &n.events,
            paramecium::machine::trap::TrapKind::Breakpoint.vector(),
            KERNEL_DOMAIN,
            factory,
        )
        .unwrap();

    for _ in 0..10 {
        n.events.deliver(
            &machine,
            &paramecium::machine::trap::Trap::exception(
                paramecium::machine::trap::TrapKind::Breakpoint,
            ),
        );
        scheduler.run_until_idle(16);
    }
    // 1+2+…+10 = 55.
    assert_eq!(consumed.load(Ordering::Relaxed), 55);
    assert_eq!(engine.stats().fast_path, 10);
}

#[test]
fn timer_interrupts_preempt_nothing_but_account_time() {
    let world = World::boot();
    let n = &world.nucleus;
    let ticks = Arc::new(AtomicU64::new(0));
    let t = ticks.clone();
    n.events
        .register(
            IRQ_VECTOR_BASE + paramecium::machine::dev::timer::TIMER_IRQ,
            KERNEL_DOMAIN,
            Arc::new(move |_| {
                t.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
    {
        let machine = n.machine().clone();
        let mut m = machine.lock();
        m.io_write("timer", paramecium::machine::dev::timer::regs::PERIOD, 1000)
            .unwrap();
        m.io_write("timer", paramecium::machine::dev::timer::regs::CTRL, 1)
            .unwrap();
    }
    n.poll(10); // Arm.
    for _ in 0..10 {
        n.poll(1000);
    }
    let got = ticks.load(Ordering::Relaxed);
    assert!(
        (8..=12).contains(&got),
        "~10 timer ticks expected, got {got}"
    );
}

#[test]
fn cross_domain_active_messages_pay_the_crossing() {
    // An active message whose handler object lives in another protection
    // domain: the pop-up invocation goes through a proxy, so each message
    // pays the trap + context-switch bill — the placement trade-off again.
    use paramecium::threads::{ActiveMsg, AmEndpoint};

    let world = World::boot();
    let n = &world.nucleus;
    let machine = n.machine().clone();
    let scheduler = Scheduler::new(machine.clone());
    let engine = PopupEngine::new(scheduler.clone(), PopupMode::Proto);
    let endpoint = AmEndpoint::install(&n.events, &engine, machine, 5, KERNEL_DOMAIN, 32).unwrap();

    // The handler lives in a user domain; the kernel-side AM dispatcher
    // imports it through a proxy.
    let app = n
        .create_domain("handler-domain", KERNEL_DOMAIN, [])
        .unwrap();
    let handler = ObjectBuilder::new("handler")
        .state(0i64)
        .interface("h", |i| {
            i.method("on_msg", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let v = args[0].as_int()?;
                this.with_state(|s: &mut i64| {
                    *s += v;
                    Ok(Value::Int(*s))
                })
            })
        })
        .build();
    n.register_shared(app.id, "/app/handler", handler).unwrap();
    let proxy = n.bind(KERNEL_DOMAIN, "/app/handler").unwrap();
    assert!(proxy.class().starts_with("proxy<"));

    let crossings_before = n.proxy_stats().crossings();
    for v in [10i64, 20, 30] {
        endpoint
            .post(ActiveMsg {
                target: proxy.clone(),
                interface: "h".into(),
                method: "on_msg".into(),
                args: vec![Value::Int(v)],
            })
            .unwrap();
    }
    n.events.drain_interrupts(n.machine());
    scheduler.run_until_idle(64);

    let done = endpoint.take_completions();
    assert_eq!(done.len(), 3);
    assert_eq!(done[2].1.as_ref().unwrap(), &Value::Int(60));
    assert_eq!(n.proxy_stats().crossings(), crossings_before + 3);
}

#[test]
fn popup_modes_behave_identically_just_at_different_cost() {
    // Functional equivalence of Proto and Eager under a blocking mix.
    let run = |mode: PopupMode| -> u64 {
        let world = World::boot();
        let n = &world.nucleus;
        let machine = n.machine().clone();
        let scheduler = Scheduler::new(machine.clone());
        let engine = PopupEngine::new(scheduler.clone(), mode);
        let sum = Arc::new(AtomicU64::new(0));
        let factory: PopupFactory = {
            let sum = sum.clone();
            let k = Arc::new(AtomicU64::new(0));
            Arc::new(move |_| {
                let sum = sum.clone();
                let v = k.fetch_add(1, Ordering::Relaxed);
                Box::new(move |ctx| {
                    if ctx.entries == 1 && v.is_multiple_of(3) {
                        return Step::Yield; // Forces promotion in Proto mode.
                    }
                    sum.fetch_add(v, Ordering::Relaxed);
                    Step::Done
                })
            })
        };
        engine
            .attach(
                &n.events,
                paramecium::machine::trap::TrapKind::Breakpoint.vector(),
                KERNEL_DOMAIN,
                factory,
            )
            .unwrap();
        for _ in 0..30 {
            n.events.deliver(
                &machine,
                &paramecium::machine::trap::Trap::exception(
                    paramecium::machine::trap::TrapKind::Breakpoint,
                ),
            );
            scheduler.run_until_idle(16);
        }
        sum.load(Ordering::Relaxed)
    };
    let proto = run(PopupMode::Proto);
    let eager = run(PopupMode::Eager);
    assert_eq!(proto, eager, "same work completed under both modes");
    assert_eq!(proto, (0u64..30).sum::<u64>());
}
