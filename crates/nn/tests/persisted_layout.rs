//! Checkpoints and saved models store parameters by slot and batch-norm
//! statistics by position, so the order in which a model walks its layers
//! is a file format. These literal layouts pin that order for the two
//! model families.

use adq_nn::{QuantModel, ResNet, Vgg};

/// `(slot, name, dims)` of every parameter, in visiting order.
fn param_layout(model: &mut dyn QuantModel) -> Vec<(usize, String, Vec<usize>)> {
    let mut out = Vec::new();
    model.visit_params(&mut |slot, p| out.push((slot, p.name.clone(), p.value.dims().to_vec())));
    out
}

/// Channel count of each batch-norm statistics entry, in stored order.
fn norm_layout(model: &mut dyn QuantModel) -> Vec<usize> {
    model
        .norm_stats()
        .iter()
        .map(|(mean, var)| {
            assert_eq!(mean.len(), var.len());
            mean.len()
        })
        .collect()
}

fn owned(layout: &[(usize, &str, &[usize])]) -> Vec<(usize, String, Vec<usize>)> {
    layout
        .iter()
        .map(|&(slot, name, dims)| (slot, name.to_string(), dims.to_vec()))
        .collect()
}

#[test]
fn vgg_tiny_layout_is_pinned() {
    let mut net = Vgg::tiny(3, 8, 4, 0);
    let expected = owned(&[
        (0, "conv.weight", &[8, 27]),
        (1, "conv.bias", &[8]),
        (2, "bn.gamma", &[8]),
        (3, "bn.beta", &[8]),
        (4, "conv.weight", &[16, 72]),
        (5, "conv.bias", &[16]),
        (6, "bn.gamma", &[16]),
        (7, "bn.beta", &[16]),
        (8, "conv.weight", &[32, 144]),
        (9, "conv.bias", &[32]),
        (10, "bn.gamma", &[32]),
        (11, "bn.beta", &[32]),
        (12, "linear.weight", &[4, 128]),
        (13, "linear.bias", &[4]),
    ]);
    assert_eq!(param_layout(&mut net), expected);
    assert_eq!(norm_layout(&mut net), [8, 16, 32]);
}

#[test]
fn resnet_tiny_layout_is_pinned() {
    // stem; block0 conv1, conv2; block1 conv1, conv2, then its 1x1
    // projection; head
    let mut net = ResNet::tiny(3, 8, 4, 0);
    let expected = owned(&[
        (0, "conv.weight", &[8, 27]),
        (1, "conv.bias", &[8]),
        (2, "bn.gamma", &[8]),
        (3, "bn.beta", &[8]),
        (4, "conv.weight", &[8, 72]),
        (5, "conv.bias", &[8]),
        (6, "bn.gamma", &[8]),
        (7, "bn.beta", &[8]),
        (8, "conv.weight", &[8, 72]),
        (9, "conv.bias", &[8]),
        (10, "bn.gamma", &[8]),
        (11, "bn.beta", &[8]),
        (12, "conv.weight", &[16, 72]),
        (13, "conv.bias", &[16]),
        (14, "bn.gamma", &[16]),
        (15, "bn.beta", &[16]),
        (16, "conv.weight", &[16, 144]),
        (17, "conv.bias", &[16]),
        (18, "bn.gamma", &[16]),
        (19, "bn.beta", &[16]),
        (20, "conv.weight", &[16, 8]),
        (21, "conv.bias", &[16]),
        (22, "bn.gamma", &[16]),
        (23, "bn.beta", &[16]),
        (24, "linear.weight", &[4, 16]),
        (25, "linear.bias", &[4]),
    ]);
    assert_eq!(param_layout(&mut net), expected);
    assert_eq!(norm_layout(&mut net), [8, 8, 8, 16, 16, 16]);
}
